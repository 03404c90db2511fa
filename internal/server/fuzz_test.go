package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzRunRequestNormalize decodes arbitrary bytes as a POST /v1/run
// body and checks that normalization is idempotent on the cache key:
// the canonical form of a canonical request is itself. A request whose
// second normalization moves its key would be stored under one key and
// looked up under another.
func FuzzRunRequestNormalize(f *testing.F) {
	f.Add([]byte(`{"design":"fgnvm","benchmark":"mcf","instructions":20000}`))
	f.Add([]byte(`{"design":"fgnvm","workload":{"preset":"gpt2s-attn-qkv","tiling":"cd"}}`))
	f.Add([]byte(`{"design":"salp","mix":["mcf","lbm"],"cores":4,"warmup_accesses":-3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r RunRequest
		if err := json.Unmarshal(data, &r); err != nil {
			return
		}
		once, _, err := r.normalize()
		if err != nil {
			return
		}
		twice, _, err := once.normalize()
		if err != nil {
			t.Fatalf("normalized request %+v fails to normalize again: %v", once, err)
		}
		if k1, k2 := once.cacheKey(), twice.cacheKey(); k1 != k2 {
			t.Fatalf("normalize is not idempotent on the key:\n once  %+v\n twice %+v", once, twice)
		}
	})
}

// FuzzServeRun posts arbitrary bytes to /v1/run on a one-worker Server
// that caps runs at 2,000 instructions and gives each a short default
// deadline, and holds the answer to checkServe's contract.
func FuzzServeRun(f *testing.F) {
	f.Add([]byte(`{"design":"fgnvm","benchmark":"mcf","instructions":20000}`))
	f.Add([]byte(`{"design":"fgnvm","workload":{"preset":"gpt2s-attn-qkv","tiling":"cd"}}`))
	f.Add([]byte(`{"design":"salp","mix":["mcf","lbm"],"cores":4,"warmup_accesses":-3}`))
	f.Add([]byte(`{"design":"fgnvm","benchmark":"lbm","instructions":1500,"stall_report":true}`))
	// Inputs the run itself used to refuse, answered 500: a device the
	// model cannot derive and a GEMM with more cores than tiles.
	f.Add([]byte(`{"design":"fgnvm","benchmark":"mcf","instructions":100,"device":{"feature_nm":-1}}`))
	f.Add([]byte(`{"workload":{"m":8,"k":8,"n":8},"instructions":100,"cores":4}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkServe(t, "/v1/run", body)
	})
}

// FuzzServeSweep posts arbitrary bytes to /v1/sweep, or to /v1/figure4
// when figure4 is set, on the same Server as FuzzServeRun, and holds
// the answer to checkServe's contract. One such request fans out into
// many runs.
func FuzzServeSweep(f *testing.F) {
	f.Add(false, []byte(`{"axis":"cds","instructions":1000}`))
	f.Add(false, []byte(`{"axis":"tiling","workload":{"preset":"gpt2s-attn-qkv"},"instructions":1000}`))
	f.Add(false, []byte(`{"axis":"rob","benchmark":"lbm","instructions":200,"values":[`+robValues(maxSweepValues)+`]}`))
	f.Add(true, []byte(`{"benchmarks":["mcf","lbm"],"instructions":1000}`))
	// A point value the run refuses, once answered 500.
	f.Add(false, []byte(`{"axis":"cores","values":[1,16],"instructions":1000}`))
	f.Fuzz(func(t *testing.T, figure4 bool, body []byte) {
		path := "/v1/sweep"
		if figure4 {
			path = "/v1/figure4"
		}
		checkServe(t, path, body)
	})
}

// checkServe posts body to path on a one-worker Server that caps runs
// at 2,000 instructions and gives each request a short default
// deadline. Every answer must be a 200, a client error (4xx) or the
// deadline's 504: never a 500, and no run may panic. A 200 body must
// equal, byte for byte, a fresh Server's answer to the same request.
func checkServe(t *testing.T, path string, body []byte) {
	t.Helper()
	serve := func() (int, []byte) {
		s, err := New(Config{Workers: 1, MaxInstructions: 2_000, DefaultTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if n := s.metrics.panics.Load(); n != 0 {
			t.Fatalf("%s %s: %d runs panicked: %s", path, body, n, rec.Body.Bytes())
		}
		return rec.Code, rec.Body.Bytes()
	}
	code, first := serve()
	switch {
	case code == http.StatusGatewayTimeout, code >= 400 && code < 500:
		return
	case code != http.StatusOK:
		t.Fatalf("%s %s: status %d: %s", path, body, code, first)
	}
	if code, again := serve(); code != http.StatusOK || !bytes.Equal(again, first) {
		t.Fatalf("%s %s: rerun on a fresh server answered %d:\n  first: %s\n  again: %s", path, body, code, first, again)
	}
}
