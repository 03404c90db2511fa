package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	fgnvm "repro"
	"repro/internal/addr"
)

// TestReplicaMatchesRun pins the replica, the only code that mirrors
// fgnvm's serial run loop, to fgnvm.Run: every design, at 1 and 4
// channels, on lbm and mcf, traced and untraced.
func TestReplicaMatchesRun(t *testing.T) {
	for _, channels := range []int{1, 4} {
		geom := addr.PaperGeometry()
		geom.Channels = channels
		for _, b := range []string{"lbm", "mcf"} {
			for _, d := range fgnvm.Designs() {
				o := fgnvm.Options{Design: d, Benchmark: b, Geometry: &geom, Instructions: 5000}
				t.Run(fmt.Sprintf("%s/%s/%dch", b, d, channels), func(t *testing.T) {
					res, err := fgnvm.Run(o)
					if err != nil {
						t.Fatal(err)
					}
					want := countersOf(res)
					for _, led := range []*ledger{nil, newLedger()} {
						got, err := replicate(context.Background(), o, led, &replicaStats{})
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Errorf("traced=%t: replica %+v, fgnvm.Run %+v", led != nil, got, want)
						}
					}
				})
			}
		}
	}
}

// TestReplicaTelemetryTrace checks that the replica wires telemetry as
// fgnvm does: its Perfetto bytes equal fgnvm.Run's.
func TestReplicaTelemetryTrace(t *testing.T) {
	var want, got bytes.Buffer
	o := fgnvm.Options{Design: fgnvm.DesignFgNVM, Benchmark: "mcf", Instructions: 5000}
	if _, err := fgnvm.Run(withTelemetry(o, &want)); err != nil {
		t.Fatal(err)
	}
	if _, err := replicate(context.Background(), withTelemetry(o, &got), newLedger(), nil); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("replica trace (%d bytes) differs from fgnvm.Run's (%d bytes)", got.Len(), want.Len())
	}
}

func TestReplicaRefusesOtherConfigurations(t *testing.T) {
	o := fgnvm.Options{Workload: &fgnvm.WorkloadSpec{Preset: "gpt2s-ffn-down"}, SkipLLC: true}
	if _, err := replicate(context.Background(), o, nil, nil); !errors.Is(err, errNotReplicable) {
		t.Errorf("GEMM workload: err = %v, want errNotReplicable", err)
	}
}
