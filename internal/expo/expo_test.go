package expo_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"secpref/internal/expo"
)

// TestWriteFiles checks the file plumbing: the base directory is
// created, each suffix gets its emitted content, and an emit failure is
// returned wrapped with the failing path and stops later files.
func TestWriteFiles(t *testing.T) {
	base := filepath.Join(t.TempDir(), "sub", "run")
	text := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := expo.WriteFiles(base, expo.File{Suffix: ".a", Emit: text("alpha")}, expo.File{Suffix: ".b", Emit: text("beta")}); err != nil {
		t.Fatal(err)
	}
	for suffix, want := range map[string]string{".a": "alpha", ".b": "beta"} {
		if got, err := os.ReadFile(base + suffix); err != nil || string(got) != want {
			t.Errorf("%s = %q, %v; want %q", suffix, got, err, want)
		}
	}

	boom := errors.New("boom")
	err := expo.WriteFiles(base,
		expo.File{Suffix: ".c", Emit: func(io.Writer) error { return boom }},
		expo.File{Suffix: ".d", Emit: text("never")})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), base+".c") {
		t.Errorf("emit failure = %v, want boom wrapped with %s.c", err, base)
	}
	if _, err := os.Stat(base + ".d"); !os.IsNotExist(err) {
		t.Errorf("file after a failure was written (stat err %v)", err)
	}
}
