package server

import (
	"encoding/json"
	"testing"
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
