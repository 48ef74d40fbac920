// Command tracegen materializes a synthetic benchmark into a TRC2
// trace file (the CRC-framed, block-compressed container of
// internal/trace, the only trace format), ingests traces into a
// content-addressed corpus, imports external ChampSim traces, or
// inspects an existing TRC2 file. Materialized traces decouple
// workload generation from simulation and make runs byte-reproducible.
//
// Usage:
//
//	tracegen -bench mcf -n 5000000 -o mcf.trc2           # generate
//	tracegen -bench mcf -n 5000000 -corpus traces/       # ingest; prints sha256:<hex>
//	tracegen -import champsim -in cloud.xz.gz -corpus traces/
//	tracegen -inspect mcf.trc2                           # summarize; a torn file exits 1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"

	"repro/internal/cliutil"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// A generator panic (bad parameters, broken workload) reports as a
	// clean diagnostic with the stack rather than a raw crash, matching
	// the other tools' failure reporting.
	defer func() {
		if rec := recover(); rec != nil {
			fmt.Fprintf(os.Stderr, "tracegen: panic: %v\n", rec)
			os.Stderr.Write(debug.Stack())
			os.Exit(1)
		}
	}()
	var (
		bench   = flag.String("bench", "mcf", "benchmark to materialize")
		n       = flag.Uint64("n", 5_000_000, "number of instructions (cap when importing)")
		out     = flag.String("o", "", "output file (default <bench>.trace)")
		corpus  = flag.String("corpus", "", "ingest into this content-addressed corpus directory instead of -o; prints the trace id on stdout")
		imp     = flag.String("import", "", "import an external trace instead of generating (formats: champsim)")
		in      = flag.String("in", "", "input file for -import (gzip is detected by sniffing)")
		seed    = flag.Uint64("seed", 42, "generator seed")
		base    = flag.Uint64("base", 0, "address-space base")
		inspect = flag.String("inspect", "", "summarize an existing trace file and exit")
		list    = flag.Bool("list", false, "list benchmarks and exit")
	)
	prof := cliutil.AddProfile(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		for _, name := range workload.Names() {
			fmt.Println(name)
		}
		return
	}
	if *inspect != "" {
		s, err := summarize(*inspect)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s.print(os.Stdout)
		return
	}

	src, closeSrc, err := openSource(*imp, *in, *bench, *seed, *base)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer closeSrc()

	if *corpus != "" {
		if err := ingestCorpus(*corpus, src, *n); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	path := *out
	if path == "" {
		if *imp != "" {
			fmt.Fprintln(os.Stderr, "tracegen: -import to a file requires -o (or use -corpus)")
			os.Exit(2)
		}
		path = *bench + ".trace"
	}
	if err := writeFile(path, src, *n); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// source is a record stream with a terminal error: a workload
// generator (never fails) or an external-format importer.
type source interface {
	Next() (trace.Record, bool)
	Err() error
}

// generatorSource adapts an endless workload generator.
type generatorSource struct{ trace.Reader }

func (generatorSource) Err() error { return nil }

func openSource(imp, in, bench string, seed, base uint64) (source, func(), error) {
	switch imp {
	case "":
		spec, ok := workload.ByName(bench)
		if !ok {
			return nil, nil, fmt.Errorf("unknown benchmark %q (use -list)", bench)
		}
		return generatorSource{spec.New(seed, mem.Addr(base))}, func() {}, nil
	case "champsim":
		if in == "" {
			return nil, nil, fmt.Errorf("tracegen: -import champsim requires -in FILE")
		}
		f, err := os.Open(in)
		if err != nil {
			return nil, nil, err
		}
		cr, err := newChampSimReader(f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return cr, func() { f.Close() }, nil
	default:
		return nil, nil, fmt.Errorf("tracegen: unknown import format %q (supported: champsim)", imp)
	}
}

// ingestCorpus streams up to n records into the corpus and prints the
// canonical content id on stdout (stats go to stderr, so scripts can
// capture the id alone). A source error aborts the ingest: a torn
// input must never be published under a valid content address.
func ingestCorpus(dir string, src source, n uint64) error {
	c, err := trace.OpenCorpus(dir)
	if err != nil {
		return err
	}
	cw, err := c.Create()
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if err := cw.Write(rec); err != nil {
			cw.Abort()
			return err
		}
	}
	if err := src.Err(); err != nil {
		cw.Abort()
		return err
	}
	if cw.Count() == 0 {
		cw.Abort()
		return fmt.Errorf("tracegen: source yielded no records; refusing to ingest an empty trace")
	}
	count := cw.Count()
	id, err := cw.Commit()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ingested %d records into %s\n", count, dir)
	fmt.Println(id)
	return nil
}

// writeFile streams up to n records into a standalone TRC2 file.
func writeFile(path string, src source, n uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	tw := trace.NewWriterV2(f)
	for i := uint64(0); i < n; i++ {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if err := tw.Write(rec); err != nil {
			return err
		}
	}
	if err := src.Err(); err != nil {
		return err
	}
	if err := tw.Close(); err != nil {
		return err
	}
	st, _ := f.Stat()
	fmt.Printf("wrote %d records to %s (%.1f MB, %.2f bytes/record)\n",
		tw.Count(), path, float64(st.Size())/(1<<20), float64(st.Size())/float64(max64(tw.Count(), 1)))
	return nil
}

// summary is the -inspect report, split from its printing so tests
// can check the round-trip numbers directly.
type summary struct {
	Records   uint64
	Loads     uint64
	Stores    uint64
	Dependent uint64
	MemoryPCs int
	Lines     int
}

func summarize(path string) (summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return summary{}, err
	}
	defer f.Close()
	r := trace.NewReaderV2(f)
	var s summary
	pcs := map[uint64]struct{}{}
	lines := map[mem.Line]struct{}{}
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		s.Records++
		switch rec.Op {
		case trace.Load:
			s.Loads++
		case trace.Store:
			s.Stores++
		}
		if rec.Op != trace.NonMem {
			pcs[rec.PC] = struct{}{}
			if len(lines) < 1<<22 {
				lines[mem.LineOf(rec.Addr)] = struct{}{}
			}
		}
		if rec.LoadDep > 0 {
			s.Dependent++
		}
	}
	if err := r.Err(); err != nil {
		return summary{}, err
	}
	s.MemoryPCs = len(pcs)
	s.Lines = len(lines)
	return s, nil
}

func (s summary) print(w io.Writer) {
	fmt.Fprintf(w, "records      : %d\n", s.Records)
	fmt.Fprintf(w, "loads/stores : %d / %d\n", s.Loads, s.Stores)
	fmt.Fprintf(w, "dependent    : %d loads (%.1f%%) are pointer-chained\n",
		s.Dependent, 100*float64(s.Dependent)/float64(max64(s.Loads, 1)))
	fmt.Fprintf(w, "memory PCs   : %d\n", s.MemoryPCs)
	fmt.Fprintf(w, "footprint    : %d distinct lines (%.1f MB)\n",
		s.Lines, float64(s.Lines)*mem.LineSize/(1<<20))
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
