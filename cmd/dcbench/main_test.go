package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/experiments"
)

// TestSnapshotFlattensResult: the envelope's fields come first, then the
// sweep's own fields at the top level of the same object, as in the
// committed BENCH files.
func TestSnapshotFlattensResult(t *testing.T) {
	env := envelope{Suite: "frag", Date: "2026-01-01T00:00:00Z", Short: true, Seed: 42, Host: thisHost()}
	res := &experiments.FragResult{LineitemRows: 10, Nodes: 3, Runs: []experiments.FragRun{{FragmentRows: 4, Fragments: 3}}}
	buf, err := snapshot(env, res)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf)
	}
	for _, k := range []string{"suite", "date", "short", "seed", "host", "lineitem_rows", "nodes", "runs"} {
		if _, ok := got[k]; !ok {
			t.Fatalf("snapshot lacks %q:\n%s", k, buf)
		}
	}
	h := got["host"].(map[string]any)
	if h["nproc"].(float64) < 1 || h["go"] == "" {
		t.Fatalf("host record empty: %v", h)
	}
	if i, j := bytes.Index(buf, []byte(`"host"`)), bytes.Index(buf, []byte(`"lineitem_rows"`)); i > j {
		t.Fatalf("envelope does not come first:\n%s", buf)
	}

	// The tier adapter marshals as the bare result, and an empty result
	// still yields a valid object.
	tbuf, err := snapshot(env, tierResult{&experiments.TierResult{Columns: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tbuf, &got); err != nil || got["columns"].(float64) != 7 {
		t.Fatalf("tier snapshot: %v\n%s", err, tbuf)
	}
	if _, err := snapshot(env, struct{}{}); err != nil {
		t.Fatalf("empty result: %v", err)
	}
}

// TestSuiteNamesUnique: the name selects the suite and its default
// snapshot file, so two rows may not share one.
func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range suites {
		if s.name == "" || seen[s.name] || s.run == nil {
			t.Fatalf("bad suite row %q", s.name)
		}
		seen[s.name] = true
	}
	if len(seen) != 7 {
		t.Fatalf("%d suites, want 7", len(seen))
	}
}
