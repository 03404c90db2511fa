package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestProfilesAllMeetPaperSelection(t *testing.T) {
	ps := Profiles()
	if len(ps) < 10 {
		t.Fatalf("only %d profiles; Figure 4 has on the order of a dozen bars", len(ps))
	}
	seen := make(map[string]bool)
	for _, p := range ps {
		if p.APKI < 10 {
			t.Errorf("%s: APKI %v below the paper's MPKI>=10 selection", p.Name, p.APKI)
		}
		if p.WriteFrac < 0 || p.WriteFrac > 1 || p.Locality < 0 || p.Locality > 1 || p.Burst < 0 || p.Burst > 1 {
			t.Errorf("%s: probability field out of range: %+v", p.Name, p)
		}
		if p.FootprintBytes < 4*mib {
			t.Errorf("%s: footprint %d too small to stress memory", p.Name, p.FootprintBytes)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestProfileByName(t *testing.T) {
	p, ok := ProfileByName("mcf")
	if !ok || p.Name != "mcf" {
		t.Fatal("mcf profile missing")
	}
	if _, ok := ProfileByName("not-a-benchmark"); ok {
		t.Fatal("unknown name found")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ProfileByName("milc")
	g1 := NewGenerator(p, 64, 4096, 42)
	g2 := NewGenerator(p, 64, 4096, 42)
	for i := 0; i < 1000; i++ {
		a1, _ := g1.Next()
		a2, _ := g2.Next()
		if a1 != a2 {
			t.Fatalf("access %d diverged: %+v vs %+v", i, a1, a2)
		}
	}
	// Different seeds diverge.
	g3 := NewGenerator(p, 64, 4096, 43)
	same := 0
	g1b := NewGenerator(p, 64, 4096, 42)
	for i := 0; i < 100; i++ {
		a1, _ := g1b.Next()
		a3, _ := g3.Next()
		if a1 == a3 {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGeneratorAPKITarget(t *testing.T) {
	for _, name := range []string{"mcf", "libquantum", "sphinx3"} {
		p, _ := ProfileByName(name)
		g := NewGenerator(p, 64, 4096, 1)
		const n = 200000
		var instrs float64
		for i := 0; i < n; i++ {
			a, _ := g.Next()
			instrs += float64(a.Gap) + 1
		}
		apki := n / (instrs / 1000)
		if math.Abs(apki-p.APKI)/p.APKI > 0.15 {
			t.Errorf("%s: generated APKI %.1f, profile says %.1f", name, apki, p.APKI)
		}
	}
}

func TestGeneratorWriteFraction(t *testing.T) {
	p, _ := ProfileByName("lbm")
	g := NewGenerator(p, 64, 4096, 1)
	const n = 100000
	writes := 0
	for i := 0; i < n; i++ {
		a, _ := g.Next()
		if a.Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if math.Abs(frac-p.WriteFrac) > 0.02 {
		t.Errorf("lbm write fraction %.3f, want ~%.2f", frac, p.WriteFrac)
	}
}

func TestGeneratorLocalityShapesStream(t *testing.T) {
	seq := func(name string) float64 {
		p, _ := ProfileByName(name)
		g := NewGenerator(p, 64, 4096, 1)
		prev, _ := g.Next()
		sequential := 0
		const n = 50000
		for i := 0; i < n; i++ {
			a, _ := g.Next()
			if a.Addr == prev.Addr+64 {
				sequential++
			}
			prev = a
		}
		return float64(sequential) / n
	}
	lq := seq("libquantum") // locality 0.95
	mc := seq("mcf")        // locality 0.15
	if lq < 0.85 {
		t.Errorf("libquantum sequential rate %.2f, want high", lq)
	}
	if mc > 0.30 {
		t.Errorf("mcf sequential rate %.2f, want low", mc)
	}
	if lq <= mc {
		t.Error("locality ordering not reflected in streams")
	}
}

func TestGeneratorStaysInFootprint(t *testing.T) {
	p, _ := ProfileByName("sphinx3")
	g := NewGenerator(p, 64, 4096, 9)
	for i := 0; i < 100000; i++ {
		a, _ := g.Next()
		if a.Addr >= p.FootprintBytes {
			t.Fatalf("access %d at %#x outside footprint %#x", i, a.Addr, p.FootprintBytes)
		}
		if a.Addr%64 != 0 {
			t.Fatalf("access %d at %#x not line aligned", i, a.Addr)
		}
	}
}

func TestLimit(t *testing.T) {
	p, _ := ProfileByName("milc")
	l := NewLimit(NewGenerator(p, 64, 4096, 1), 5)
	count := 0
	for {
		_, ok := l.Next()
		if !ok {
			break
		}
		count++
	}
	if count != 5 {
		t.Fatalf("Limit yielded %d, want 5", count)
	}
}

func TestSliceStream(t *testing.T) {
	accs := []Access{{Gap: 1, Addr: 64}, {Gap: 2, Addr: 128, Write: true}}
	s := NewSliceStream(accs)
	a, ok := s.Next()
	if !ok || a != accs[0] {
		t.Fatal("first access wrong")
	}
	a, ok = s.Next()
	if !ok || a != accs[1] {
		t.Fatal("second access wrong")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream yielded")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	p, _ := ProfileByName("omnetpp")
	g := NewGenerator(p, 64, 4096, 3)
	var orig []Access
	for i := 0; i < 500; i++ {
		a, _ := g.Next()
		orig = append(orig, a)
	}
	var buf bytes.Buffer
	n, err := WriteTrace(&buf, NewSliceStream(orig), uint64(len(orig)))
	if err != nil || n != 500 {
		t.Fatalf("WriteTrace n=%d err=%v", n, err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip length %d, want %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Fatalf("access %d: %+v != %+v", i, back[i], orig[i])
		}
	}
}

func TestWriteTraceStopsAtStreamEnd(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteTrace(&buf, NewSliceStream([]Access{{Addr: 64}}), 100)
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v, want 1", n, err)
	}
}

func TestReadTraceSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n5 40 R\n  \n3 80 W\n"
	accs, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 2 || accs[0].Addr != 0x40 || !accs[1].Write {
		t.Fatalf("parsed %+v", accs)
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []string{
		"1 2\n",          // too few fields
		"x 40 R\n",       // bad gap
		"1 zz R\n",       // bad addr
		"1 40 Q\n",       // bad op
		"1 40 R extra\n", // too many fields
	}
	for _, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestReadTraceAcceptsLowercaseOps(t *testing.T) {
	accs, err := ReadTrace(strings.NewReader("0 40 r\n0 80 w\n"))
	if err != nil {
		t.Fatal(err)
	}
	if accs[0].Write || !accs[1].Write {
		t.Fatal("lowercase ops misparsed")
	}
}

// Property: round trip through the text format is lossless for
// arbitrary accesses.
func TestTraceFormatRoundTripProperty(t *testing.T) {
	f := func(gap uint32, ad uint64, wr bool) bool {
		in := []Access{{Gap: gap, Addr: ad, Write: wr}}
		var buf bytes.Buffer
		if _, err := WriteTrace(&buf, NewSliceStream(in), 1); err != nil {
			return false
		}
		out, err := ReadTrace(&buf)
		return err == nil && len(out) == 1 && out[0] == in[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratorIgnoresRowBytes: the stream depends on the profile, the
// line size and the seed only, so designs with different row sizes (the
// many-banks design has smaller rows) see the same accesses.
func TestGeneratorIgnoresRowBytes(t *testing.T) {
	p, _ := ProfileByName("mcf")
	g1 := NewGenerator(p, 64, 4096, 3)
	g2 := NewGenerator(p, 64, 256, 3)
	for i := 0; i < 1000; i++ {
		a1, _ := g1.Next()
		a2, _ := g2.Next()
		if a1 != a2 {
			t.Fatalf("access %d differs across row sizes: %+v vs %+v", i, a1, a2)
		}
	}
}

// TestGeneratorClone: a clone continues exactly like its original, and
// drawing from the clone does not advance the original.
func TestGeneratorClone(t *testing.T) {
	p, _ := ProfileByName("lbm")
	g := NewGenerator(p, 64, 4096, 5)
	ref := NewGenerator(p, 64, 4096, 5)
	for i := 0; i < 100; i++ {
		g.Next()
		ref.Next()
	}
	c := g.Clone()
	for i := 0; i < 1000; i++ {
		a, _ := c.Next()
		want, _ := ref.Next()
		if a != want {
			t.Fatalf("clone access %d = %+v, want %+v", i, a, want)
		}
	}
	ref = NewGenerator(p, 64, 4096, 5)
	for i := 0; i < 100; i++ {
		ref.Next()
	}
	for i := 0; i < 1000; i++ {
		a, _ := g.Next()
		want, _ := ref.Next()
		if a != want {
			t.Fatalf("original access %d = %+v after cloning, want %+v", i, a, want)
		}
	}
}

func TestSplitMixDistribution(t *testing.T) {
	r := rng{state: 1}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.float()
		if v < 0 || v >= 1 {
			t.Fatalf("float out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("rng mean %.4f, want ~0.5", mean)
	}
	if r.intn(0) != 0 {
		t.Error("intn(0) should be 0")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	s := Analyze(nil, 64)
	if s.Accesses != 0 || s.String() != "empty trace" {
		t.Fatalf("empty analyze: %+v", s)
	}
}

func TestAnalyzeKnownStream(t *testing.T) {
	accs := []Access{
		{Gap: 9, Addr: 0},                // 10 instrs
		{Gap: 9, Addr: 64},               // sequential
		{Gap: 9, Addr: 128, Write: true}, // sequential
		{Gap: 9, Addr: 1 << 21},          // jump to another MiB region
	}
	s := Analyze(accs, 64)
	if s.Accesses != 4 || s.Instructions != 40 {
		t.Fatalf("counts: %+v", s)
	}
	if s.APKI != 100 {
		t.Errorf("APKI = %v, want 100", s.APKI)
	}
	if s.WriteFrac != 0.25 {
		t.Errorf("WriteFrac = %v", s.WriteFrac)
	}
	if s.SeqFrac != 0.5 {
		t.Errorf("SeqFrac = %v", s.SeqFrac)
	}
	if s.UniqueLines != 4 || s.FootprintMiB != 2 {
		t.Errorf("footprint: %+v", s)
	}
	if s.MinAddr != 0 || s.MaxAddr != 1<<21 {
		t.Errorf("range: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestAnalyzeMatchesProfiles(t *testing.T) {
	// Analyze must agree with the generator's own targets.
	p, _ := ProfileByName("lbm")
	g := NewGenerator(p, 64, 4096, 5)
	var accs []Access
	for i := 0; i < 50000; i++ {
		a, _ := g.Next()
		accs = append(accs, a)
	}
	s := Analyze(accs, 64)
	if d := s.APKI - p.APKI; d > p.APKI*0.15 || d < -p.APKI*0.15 {
		t.Errorf("APKI %v vs profile %v", s.APKI, p.APKI)
	}
	if d := s.WriteFrac - p.WriteFrac; d > 0.03 || d < -0.03 {
		t.Errorf("WriteFrac %v vs profile %v", s.WriteFrac, p.WriteFrac)
	}
}

func TestOffsetStream(t *testing.T) {
	base := []Access{{Addr: 64}, {Addr: 128, Write: true}}
	o := NewOffset(NewSliceStream(base), 1<<30)
	a, ok := o.Next()
	if !ok || a.Addr != 64+1<<30 {
		t.Fatalf("offset addr = %#x", a.Addr)
	}
	a, _ = o.Next()
	if a.Addr != 128+1<<30 || !a.Write {
		t.Fatal("second access wrong")
	}
	if _, ok := o.Next(); ok {
		t.Fatal("exhausted inner stream should end the offset stream")
	}
}
