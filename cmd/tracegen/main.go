// Command tracegen generates a synthetic workload trace and writes it
// in the binary trace format.
//
// Usage:
//
//	tracegen -name 605.mcf-1554B -instrs 1000000 -o mcf.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"secpref/internal/expo"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

func main() {
	var (
		name   = flag.String("name", "", "workload name (see secpref -list)")
		instrs = flag.Int("instrs", 1_000_000, "instruction count")
		seed   = flag.Int64("seed", 1, "generation seed")
		out    = flag.String("o", "", "output file (default <name>.trace)")
	)
	flag.Parse()
	if *name == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -name is required; available traces:")
		for _, n := range workload.Names() {
			fmt.Fprintln(os.Stderr, " ", n)
		}
		os.Exit(2)
	}
	tr, err := workload.Get(*name, workload.Params{Instrs: *instrs, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = *name + ".trace"
	}
	if err := expo.WriteFiles(path, expo.File{Emit: func(w io.Writer) error { return trace.Write(w, tr) }}); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d instructions to %s\n", tr.Len(), path)
}
