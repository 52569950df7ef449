package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestPrintTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	PrintTable(&buf, []string{"a", "long-header"}, [][]string{
		{"1", "2"},
		{"333", "4"},
	})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("missing separator: %q", lines[1])
	}
	// Column alignment: "long-header" position consistent.
	idx := strings.Index(lines[0], "long-header")
	if idx <= 0 {
		t.Fatal("header missing")
	}
	if lines[2][idx] != '2' {
		t.Fatalf("misaligned table:\n%s", buf.String())
	}
}

func TestFormatters(t *testing.T) {
	if F(0.123456) != "0.1235" {
		t.Fatalf("F: %s", F(0.123456))
	}
	if Secs(1.5) != "1.5s" {
		t.Fatalf("Secs: %s", Secs(1.5))
	}
}

func TestTimed(t *testing.T) {
	ran := false
	secs := Timed(func() { ran = true })
	if !ran || secs < 0 {
		t.Fatal("Timed broken")
	}
}
