// Package config implements the simple key=value configuration format
// used by the command-line tools, in the spirit of NVMain's config
// files. Lines contain "key = value"; '#' starts a comment; keys are
// case-insensitive. String records which keys were consumed so a file
// full of typos fails loudly instead of silently using defaults.
package config

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// KV holds parsed configuration pairs.
type KV struct {
	values map[string]string
	used   map[string]bool
}

// Parse reads key=value pairs from r.
func Parse(r io.Reader) (*KV, error) {
	kv := &KV{values: make(map[string]string), used: make(map[string]bool)}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, fmt.Errorf("config: line %d: missing '=' in %q", lineNo, line)
		}
		key := strings.ToLower(strings.TrimSpace(line[:eq]))
		val := strings.TrimSpace(line[eq+1:])
		if key == "" {
			return nil, fmt.Errorf("config: line %d: empty key", lineNo)
		}
		if _, dup := kv.values[key]; dup {
			return nil, fmt.Errorf("config: line %d: duplicate key %q", lineNo, key)
		}
		kv.values[key] = val
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("config: read: %v", err)
	}
	return kv, nil
}

// ParseString parses a configuration from a string.
func ParseString(s string) (*KV, error) { return Parse(strings.NewReader(s)) }

// String returns the raw value for key, or def if absent.
func (kv *KV) String(key, def string) string {
	k := strings.ToLower(key)
	if v, ok := kv.values[k]; ok {
		kv.used[k] = true
		return v
	}
	return def
}

// Unused returns the keys that were parsed but never read by String —
// usually misspellings. Sorted for stable error messages.
func (kv *KV) Unused() []string {
	var out []string
	for k := range kv.values {
		if !kv.used[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// CheckUnused returns an error listing any unconsumed keys.
func (kv *KV) CheckUnused() error {
	if u := kv.Unused(); len(u) > 0 {
		return fmt.Errorf("config: unknown keys: %s", strings.Join(u, ", "))
	}
	return nil
}
