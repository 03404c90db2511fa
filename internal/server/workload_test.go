package server

import (
	"encoding/json"
	"net/http"
	"testing"

	fgnvm "repro"
)

// TestWorkloadRequestCanonicalKeys: workload requests that resolve to
// the same gemm.Spec share one cache key, so defaults spelled out and
// defaults elided coalesce.
func TestWorkloadRequestCanonicalKeys(t *testing.T) {
	key := func(body RunRequest) string {
		norm, _, err := body.normalize()
		if err != nil {
			t.Fatalf("normalize: %v", err)
		}
		return norm.cacheKey()
	}
	a := key(RunRequest{Design: "fgnvm", Workload: &fgnvm.WorkloadSpec{Preset: "gpt2s-attn-qkv"}})
	b := key(RunRequest{Design: "fgnvm", Workload: &fgnvm.WorkloadSpec{Preset: "gpt2s-attn-qkv", Tiling: "sag", Gap: 4}})
	if a != b {
		t.Error("defaulted and explicit workload requests hash to different keys")
	}
	for i, other := range []RunRequest{
		{Design: "fgnvm", Workload: &fgnvm.WorkloadSpec{Preset: "gpt2s-attn-qkv", Tiling: "cd"}},
		{Design: "fgnvm", Workload: &fgnvm.WorkloadSpec{Preset: "gpt2s-ffn-down"}},
		{Design: "fgnvm", Workload: &fgnvm.WorkloadSpec{M: 128, K: 768, N: 2304}},
		{Design: "fgnvm", Benchmark: "mcf"},
	} {
		if key(other) == a {
			t.Errorf("case %d: distinct workload request collided with base key", i)
		}
	}
}

func TestWorkloadRequestValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  RunRequest
	}{
		{"workload and benchmark", RunRequest{Benchmark: "mcf", Workload: &fgnvm.WorkloadSpec{Preset: "gpt2s-attn-qkv"}}},
		{"workload and mix", RunRequest{Mix: []string{"mcf"}, Workload: &fgnvm.WorkloadSpec{Preset: "gpt2s-attn-qkv"}}},
		{"unknown preset", RunRequest{Workload: &fgnvm.WorkloadSpec{Preset: "nope"}}},
		{"preset plus shape", RunRequest{Workload: &fgnvm.WorkloadSpec{Preset: "gpt2s-attn-qkv", M: 8, K: 8, N: 8}}},
		{"bad tiling", RunRequest{Workload: &fgnvm.WorkloadSpec{M: 8, K: 8, N: 8, Tiling: "zigzag"}}},
		{"empty workload", RunRequest{Workload: &fgnvm.WorkloadSpec{}}},
	} {
		if _, _, err := tc.req.normalize(); err == nil {
			t.Errorf("%s: normalize accepted invalid request", tc.name)
		}
	}

	// A valid workload normalizes with defaults explicit and reaches
	// the Options.
	norm, o, err := RunRequest{Workload: &fgnvm.WorkloadSpec{Preset: "gpt2s-attn-qkv"}}.normalize()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if norm.Workload == nil || norm.Workload.Tiling != "sag" || norm.Workload.Gap == 0 {
		t.Errorf("canonical workload missing defaults: %+v", norm.Workload)
	}
	if o.Workload == nil || o.Workload.Preset != "gpt2s-attn-qkv" {
		t.Errorf("Options.Workload not populated: %+v", o.Workload)
	}
}

func TestSweepWorkloadValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  SweepRequest
	}{
		{"tiling axis without workload", SweepRequest{Axis: "tiling"}},
		{"workload and benchmark", SweepRequest{Axis: "sags", Benchmark: "mcf", Workload: &fgnvm.WorkloadSpec{Preset: "gpt2s-attn-qkv"}}},
		{"unknown preset", SweepRequest{Axis: "sags", Workload: &fgnvm.WorkloadSpec{Preset: "nope"}}},
	} {
		if _, _, err := tc.req.normalize(); err == nil {
			t.Errorf("%s: normalize accepted invalid request", tc.name)
		}
	}
	norm, p, err := SweepRequest{Axis: "tiling", Workload: &fgnvm.WorkloadSpec{Preset: "gpt2s-attn-score"}}.normalize()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if norm.Workload == nil || norm.Workload.Tiling != "sag" {
		t.Errorf("canonical sweep workload missing defaults: %+v", norm.Workload)
	}
	if p.Workload == nil || p.Benchmark != "" {
		t.Errorf("SweepParams not carrying workload: %+v", p)
	}
}

// TestWorkloadEndToEnd drives the real simulator through /v1/run and
// /v1/sweep with workload specs, including the HTTP-level conflict and
// cache-coalescing behavior.
func TestWorkloadEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2}, nil)

	resp, b := postJSON(t, ts.URL+"/v1/run",
		`{"design":"fgnvm","workload":{"preset":"gpt2s-attn-score"},"instructions":2000,"skip_llc":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workload run: status %d, body %s", resp.StatusCode, b)
	}
	var res fgnvm.Result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("body is not a Result: %v", err)
	}
	if res.Benchmark != "gpt2s-attn-score/sag" {
		t.Errorf("Benchmark = %q, want gpt2s-attn-score/sag", res.Benchmark)
	}

	// Same spec with defaults spelled out: cache hit.
	resp2, _ := postJSON(t, ts.URL+"/v1/run",
		`{"design":"fgnvm","workload":{"preset":"gpt2s-attn-score","tiling":"sag","gap":4},"instructions":2000,"skip_llc":true}`)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("equivalent workload spec X-Cache = %q, want hit", got)
	}

	// Conflicting sources are a 400, not a 500.
	resp3, _ := postJSON(t, ts.URL+"/v1/run",
		`{"benchmark":"mcf","workload":{"preset":"gpt2s-attn-score"}}`)
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("workload+benchmark: status %d, want 400", resp3.StatusCode)
	}

	// Tiling sweep over the workload.
	resp4, b4 := postJSON(t, ts.URL+"/v1/sweep",
		`{"axis":"tiling","values":[0,1],"workload":{"preset":"gpt2s-attn-score"},"instructions":2000,"skip_llc":true}`)
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("tiling sweep: status %d, body %s", resp4.StatusCode, b4)
	}
	var sr fgnvm.SweepResult
	if err := json.Unmarshal(b4, &sr); err != nil {
		t.Fatalf("sweep body: %v", err)
	}
	if len(sr.Points) != 2 || sr.Benchmark != "gpt2s-attn-score" {
		t.Errorf("sweep result: %d points, benchmark %q", len(sr.Points), sr.Benchmark)
	}

	// Tiling axis without a workload is a 400.
	resp5, _ := postJSON(t, ts.URL+"/v1/sweep", `{"axis":"tiling","values":[0,1]}`)
	if resp5.StatusCode != http.StatusBadRequest {
		t.Errorf("tiling sweep without workload: status %d, want 400", resp5.StatusCode)
	}
}
