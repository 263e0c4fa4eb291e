// Package expo owns the simulator's export formats: Prometheus text
// exposition (Family), Chrome trace-event JSON (Trace), indented JSON
// documents (WriteJSON), and the file plumbing that writes any of them
// to disk (WriteFiles). Every exporter in the repository renders
// through it, so each format has exactly one implementation.
package expo

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// File is one artifact of a WriteFiles call: the suffix appended to the
// base path and the function that renders the file's content.
type File struct {
	Suffix string
	Emit   func(io.Writer) error
}

// WriteFiles writes each file to base+Suffix, creating base's directory
// if it is missing. Output is buffered; an emit, flush or Close failure
// is returned wrapped with the file's path, and the first failure stops
// the remaining files.
func WriteFiles(base string, files ...File) error {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	for _, f := range files {
		if err := writeFile(base+f.Suffix, f.Emit); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = emit(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// WriteJSON writes v as one two-space-indented JSON document.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// FileLabel turns a variant label ("berti/TS/secure+SUF") into a file
// name fragment ("berti-TS-secure-SUF").
func FileLabel(label string) string { return fileLabel.Replace(label) }

var fileLabel = strings.NewReplacer("/", "-", "+", "-", " ", "-", ":", "-")
