package main

import (
	"testing"
	"time"
)

// TestServeCountsAFlippedByte is the benchmark's self-test: one byte
// flipped in one served document must surface as exactly one failure,
// and the same run without the flip must have none.
func TestServeCountsAFlippedByte(t *testing.T) {
	t.Chdir(t.TempDir()) // runServe keeps its store under .bench_build/
	for _, tc := range []struct {
		corruptAfter, want int
	}{{0, 0}, {5, 1}} {
		o, err := runServe(serveConfig{seed: 7, window: time.Second, workers: 2, clients: 2, corruptAfter: tc.corruptAfter})
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != tc.want {
			t.Errorf("corruptAfter=%d: %d failures, want %d", tc.corruptAfter, o.failed, tc.want)
		}
		if o.attempted < 10 {
			t.Errorf("corruptAfter=%d: only %d requests attempted", tc.corruptAfter, o.attempted)
		}
	}
}

// TestCovered checks the self-time arithmetic: overlapping children are
// counted once and clipped to their parent.
func TestCovered(t *testing.T) {
	parent := span{Start: 10, End: 100}
	kids := []span{{Start: 0, End: 20}, {Start: 15, End: 30}, {Start: 50, End: 60}, {Start: 55, End: 58}, {Start: 90, End: 120}}
	if got, want := covered(parent, kids), int64(20+10+10); got != want {
		t.Fatalf("covered = %d, want %d", got, want)
	}
	if got := covered(parent, nil); got != 0 {
		t.Fatalf("covered with no children = %d", got)
	}
}
