// Package bank provides the "128 banks per rank" idealized comparison
// point of Figure 4 (ManyBanksGeometry), where each bank is sized like
// one (SAG, CD) pair of the FgNVM design. Its tests keep an independent
// re-implementation of the prototype NVM bank [13] that cross-validates
// the degenerate 1×1 core.Bank.
package bank

import (
	"fmt"

	"repro/internal/addr"
)

// ManyBanksGeometry derives the Figure 4 "128 banks" comparison setup
// from an FgNVM geometry: the bank count multiplies by SAGs×CDs, each
// new bank is sized like one (SAG, CD) pair (rows/SAGs rows of cols/CDs
// columns), and the subdivisions collapse to 1×1. Total capacity is
// preserved.
func ManyBanksGeometry(g addr.Geometry) (addr.Geometry, error) {
	if err := g.Validate(); err != nil {
		return addr.Geometry{}, err
	}
	out := g
	out.Banks = g.Banks * g.SAGs * g.CDs
	out.Rows = g.Rows / g.SAGs
	out.Cols = g.Cols / g.CDs
	out.SAGs = 1
	out.CDs = 1
	if err := out.Validate(); err != nil {
		return addr.Geometry{}, fmt.Errorf("bank: derived many-banks geometry invalid: %w", err)
	}
	return out, nil
}
