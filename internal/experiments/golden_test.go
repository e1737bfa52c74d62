package experiments

// Golden-file test for the whole default report at a small size: every
// table, the figure and the NQ section must render byte-for-byte as the
// committed testdata/report.md, so a change to the graph layer, the
// simulators or the harness cannot shift a reported number silently.
// Regenerate with
//
//	go test ./internal/experiments -run TestReportGolden -update
//
// only after an intentional change to the reported results, and explain
// the diff.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, ReportConfig{N: 128, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "report.md")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
