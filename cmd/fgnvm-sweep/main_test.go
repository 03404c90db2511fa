package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	fgnvm "repro"
	"repro/internal/server"
)

// TestSweepBodyIsServerRequest: the body -server sends decodes, with
// unknown fields rejected as the server does, into exactly the
// SweepRequest the local sweep parameters describe — the whole
// WorkloadSpec included, not just its preset.
func TestSweepBodyIsServerRequest(t *testing.T) {
	w := &fgnvm.WorkloadSpec{Preset: "gpt2s-ffn-down", Tiling: "cd", TileM: 16, Gap: 2}
	cases := []struct {
		p    fgnvm.SweepParams
		want server.SweepRequest
	}{
		{
			fgnvm.SweepParams{Axis: "cds", Values: []int{1, 2}, Design: fgnvm.DesignSALP,
				Benchmark: "mcf", Instructions: 5000, Seed: 3, Parallel: 4},
			server.SweepRequest{Axis: "cds", Values: []int{1, 2}, Design: "salp",
				Benchmark: "mcf", Instructions: 5000, Seed: 3},
		},
		{
			fgnvm.SweepParams{Axis: "sags", Design: fgnvm.DesignFgNVM, Workload: w,
				Instructions: 100_000, Seed: 1, SkipLLC: true},
			server.SweepRequest{Axis: "sags", Design: "fgnvm", Workload: w,
				Instructions: 100_000, Seed: 1, SkipLLC: true},
		},
	}
	for _, c := range cases {
		body, err := sweepBody(c.p)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var got server.SweepRequest
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s decodes to %+v, want %+v", body, got, c.want)
		}
	}
}
