package config

import (
	"strings"
	"testing"
)

func TestParseBasics(t *testing.T) {
	kv, err := ParseString(`
# a comment
design = fgnvm
sags=8
cds = 2   # trailing comment
ratio = 1.5
trace = out.json # value keeps its dots
flag =
`)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		"design": "fgnvm", "sags": "8", "cds": "2", "ratio": "1.5", "trace": "out.json", "flag": "",
	} {
		if got := kv.String(key, "absent"); got != want {
			t.Errorf("%s = %q, want %q", key, got, want)
		}
	}
	if err := kv.CheckUnused(); err != nil {
		t.Errorf("all keys consumed but: %v", err)
	}
}

func TestParseDefaults(t *testing.T) {
	kv, err := ParseString("")
	if err != nil {
		t.Fatal(err)
	}
	if kv.String("missing", "def") != "def" {
		t.Error("string default")
	}
	if u := kv.Unused(); len(u) != 0 {
		t.Errorf("empty config has unused keys %v", u)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"novalue\n",
		"= nokey\n",
		"dup = 1\ndup = 2\n",
	}
	for _, in := range cases {
		if _, err := ParseString(in); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestCaseInsensitiveKeys(t *testing.T) {
	kv, _ := ParseString("DeSiGn = x\n")
	if kv.String("design", "") != "x" || kv.String("DESIGN", "") != "x" {
		t.Error("keys should be case-insensitive")
	}
}

func TestUnusedDetection(t *testing.T) {
	kv, _ := ParseString("used = 1\ntypo = 2\nmistake = 3\n")
	kv.String("used", "")
	u := kv.Unused()
	if len(u) != 2 || u[0] != "mistake" || u[1] != "typo" {
		t.Fatalf("Unused = %v", u)
	}
	err := kv.CheckUnused()
	if err == nil || !strings.Contains(err.Error(), "typo") {
		t.Fatalf("CheckUnused = %v", err)
	}
}
