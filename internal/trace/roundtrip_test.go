package trace

import (
	"bytes"
	"strings"
	"testing"
)

// synthAccesses builds a deterministic access slice from a seed using
// the package's own SplitMix64 — the property-test input generator.
func synthAccesses(seed uint64, n int) []Access {
	r := rng{state: seed}
	out := make([]Access, n)
	for i := range out {
		out[i] = Access{
			Gap:   uint32(r.next()),
			Addr:  r.next(),
			Write: r.next()&1 == 1,
		}
	}
	return out
}

// TestTraceRoundTrip: WriteTrace then ReadTrace reproduces the exact
// access sequence — gaps, addresses, and operations.
func TestTraceRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		accs := synthAccesses(seed, 2048)
		var buf bytes.Buffer
		wrote, err := WriteTrace(&buf, NewSliceStream(accs), uint64(len(accs)))
		if err != nil {
			t.Fatalf("seed %d: WriteTrace: %v", seed, err)
		}
		if wrote != uint64(len(accs)) {
			t.Fatalf("seed %d: wrote %d, want %d", seed, wrote, len(accs))
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("seed %d: ReadTrace: %v", seed, err)
		}
		if len(got) != len(accs) {
			t.Fatalf("seed %d: read %d accesses, want %d", seed, len(got), len(accs))
		}
		for i := range accs {
			if got[i] != accs[i] {
				t.Fatalf("seed %d: access %d = %+v, want %+v", seed, i, got[i], accs[i])
			}
		}
	}
}

// TestTraceRoundTripLimited: WriteTrace's n caps an infinite stream.
func TestTraceRoundTripLimited(t *testing.T) {
	g := NewGenerator(Profiles()[0], 64, 4096, 7)
	var buf bytes.Buffer
	wrote, err := WriteTrace(&buf, g, 100)
	if err != nil {
		t.Fatal(err)
	}
	if wrote != 100 {
		t.Fatalf("wrote %d, want 100", wrote)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("read %d, want 100", len(got))
	}
}

// TestReadTraceToleranceInterleaved: comments and blank lines between
// records survive a round trip edit (the format's documented
// tolerance), including boundary values.
func TestReadTraceToleranceInterleaved(t *testing.T) {
	in := "# header comment\n\n  3 1f40 R  \n\n# middle\n0 0 w\n\t7 ffffffffffffffff r\n"
	got, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Access{
		{Gap: 3, Addr: 0x1f40},
		{Gap: 0, Addr: 0, Write: true},
		{Gap: 7, Addr: 0xffffffffffffffff},
	}
	if len(got) != len(want) {
		t.Fatalf("read %d accesses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("access %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReadTraceGapOverflow: a gap beyond uint32 must error, not wrap.
func TestReadTraceGapOverflow(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("4294967296 1f40 R\n")); err == nil {
		t.Fatal("gap overflow: want error")
	}
}

// TestReadTraceOversizedLine: a line beyond the scanner's 1 MiB cap
// must surface as a read error, not a silent truncation.
func TestReadTraceOversizedLine(t *testing.T) {
	long := "# " + strings.Repeat("x", 2*1024*1024) + "\n"
	_, err := ReadTrace(strings.NewReader(long + "3 1f40 R\n"))
	if err == nil {
		t.Fatal("oversized line: want error")
	}
	if !strings.Contains(err.Error(), "trace: read:") {
		t.Errorf("error %q, want a trace: read: scanner error", err)
	}
}

// FuzzTraceRoundTrip drives the property from arbitrary seeds/lengths.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint16(16))
	f.Add(uint64(0xdeadbeef), uint16(512))
	f.Add(uint64(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		accs := synthAccesses(seed, int(n)%1024)
		var buf bytes.Buffer
		if _, err := WriteTrace(&buf, NewSliceStream(accs), uint64(len(accs))); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadTrace: %v", err)
		}
		if len(got) != len(accs) {
			t.Fatalf("read %d, want %d", len(got), len(accs))
		}
		for i := range accs {
			if got[i] != accs[i] {
				t.Fatalf("access %d = %+v, want %+v", i, got[i], accs[i])
			}
		}
	})
}
