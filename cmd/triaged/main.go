// Command triaged serves the simulation engine as a long-running job
// service (see internal/service): submit benchmark runs or whole paper
// figures over HTTP, follow their progress live, and fetch results
// from a content-addressed store that survives restarts.
//
// On SIGTERM/SIGINT the server drains gracefully: in-flight
// simulations finish (and persist), queued jobs stay in the store
// directory and are re-admitted by the next process, and only then
// does the process exit.
//
//	triaged -store runs.service -listen 127.0.0.1:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/netfault"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "triaged:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:8080", "address to serve the HTTP API on (port 0 picks a free port)")
	store := flag.String("store", "runs.service", "result store directory (shared with queued-job persistence)")
	queueCap := flag.Int("queue", 64, "admission queue capacity; submissions beyond it get 429")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "in-process job slots, each running one job at a time on a shared simulation pool of this size; none under -cluster, where triageworker processes run every job")
	portFile := flag.String("portfile", "", "write the bound address to this file once listening (for scripts using port 0)")
	traceCap := flag.Int("tracecap", 256, "flight-recorder capacity (traces held for /debug/trace)")
	corpus := flag.String("corpus", "", "content-addressed trace corpus directory; enables jobs that replay traces by hash")
	clusterMode := flag.Bool("cluster", false, "coordinator mode: jobs run on triageworker processes instead of in-process goroutines")
	lease := flag.Duration("lease", 10*time.Second, "cluster mode: worker lease TTL; a job whose worker stops heartbeating this long is requeued")
	nfPlan := flag.String("netfault", "", "seeded server-side fault plan for chaos drills, e.g. seed=7,refuse=0.05 (accepted connections are dropped per plan; see internal/netfault)")
	prof := cliutil.AddProfile(flag.CommandLine)
	wd := cliutil.AddWatchdog(flag.CommandLine)
	flag.Parse()

	// Install the drain handler before anything is published: a SIGTERM
	// that arrives once the port file exists (or while the store is
	// still opening) must drain, not kill the process.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	stopProf, err := prof.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer stopProf()

	if *clusterMode {
		*workers = 0
	}
	srv, err := service.New(service.Config{
		StoreDir:  *store,
		QueueCap:  *queueCap,
		Workers:   *workers,
		Deadline:  *wd.Deadline,
		Stall:     *wd.Stall,
		TraceCap:  *traceCap,
		CorpusDir: *corpus,
		// Degraded-mode entries dump the flight recorder to stderr so the
		// trace timeline around a store fault survives even a crash
		// before anyone scrapes /debug/trace.
		TraceLog: os.Stderr,
	})
	if err != nil {
		return err
	}
	if n := srv.Restored(); n > 0 {
		fmt.Fprintf(os.Stderr, "triaged: re-admitted %d queued job(s) from %s\n", n, *store)
	}
	var coord *cluster.Coordinator
	if *clusterMode {
		coord, err = cluster.New(cluster.Config{Server: srv, LeaseTTL: *lease})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "triaged: cluster coordinator enabled (lease %v) — start triageworker processes to execute jobs\n", *lease)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	var faulty *netfault.Listener
	if *nfPlan != "" {
		plan, err := netfault.ParsePlan(*nfPlan)
		if err != nil {
			return err
		}
		faulty = netfault.WrapListener(ln, plan)
		ln = faulty
		fmt.Fprintf(os.Stderr, "triaged: netfault listener armed (%s)\n", *nfPlan)
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "triaged: serving on http://%s (store %s, %d workers, queue %d)\n",
		ln.Addr(), *store, *workers, *queueCap)

	// Non-zero timeouts everywhere a slow or dead client could
	// otherwise pin a connection: headers and bodies are small (submits
	// are capped at 1 MiB), so generous-but-finite limits only ever
	// bite misbehaving peers. SSE streams outlive WriteTimeout by
	// re-arming a per-write deadline via http.ResponseController.
	handler := http.Handler(srv.Handler())
	if coord != nil {
		handler = coord.Handler(handler)
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "triaged: %v — draining (in-flight jobs finish, queued jobs persist)\n", sig)
	}

	// Drain order: stop admissions and let workers finish first, so a
	// client that was mid-submit gets a clean 503 rather than a reset,
	// then stop the HTTP listener.
	stats := srv.Drain()
	if coord != nil {
		// Drain closed the queue, so the dispatcher has exited; Stop
		// joins it and closes the assignment log.
		coord.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if err := srv.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "triaged: drained — %d job(s) finished, %d queued job(s) persisted\n",
		stats.Finished, stats.Queued)
	if faulty != nil {
		fmt.Fprintf(os.Stderr, "triaged: netfault injected: %s\n", faulty.CountersString())
	}
	return nil
}
