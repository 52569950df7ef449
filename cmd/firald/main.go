// Command firald serves FIRAL selection as a long-lived HTTP/JSON
// service: clients register unlabeled pools (shard paths or inline CSV),
// upload labels as the active-learning dialogue progresses, and kick off
// asynchronous train+select rounds that are admission-controlled,
// checkpointed, and resumable across restarts.
//
// Usage:
//
//	firald -data /var/lib/firal [-addr :8080] [-concurrency 2] [-queue 8]
//
// GOMAXPROCS sets the worker count every round runs with; sessions share
// it and have no worker setting of their own. Every round streams its
// pool in row blocks whose size follows from the pool's row count alone
// (dataset.BlockRowsFor): the block size fixes the solver's bits, so it is
// no setting, and a round resumed after a restart continues the
// interrupted trajectory.
//
// SIGINT/SIGTERM drain gracefully: in-flight HTTP requests get
// -drain-timeout to finish, running rounds are interrupted at their last
// checkpoint, and the next start resumes them. See ARCHITECTURE.md
// § Service layer and examples/service for a walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/parallel"
	"repro/internal/server"
)

// Connection timeouts. A client gets readHeaderTimeout to send its
// request line and headers, and an idle keep-alive connection is closed
// after idleTimeout, so a slow or silent client cannot hold a connection
// forever. There is no timeout on reading a body: a large pool upload
// over a slow link is honest traffic.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port; the bound address is printed)")
	data := flag.String("data", "", "data directory for session state and checkpoints (required)")
	concurrency := flag.Int("concurrency", 2, "rounds allowed to run at once")
	queue := flag.Int("queue", 8, "rounds allowed to wait beyond the running ones before 429")
	maxResident := flag.Int64("max-resident", 1<<30, "byte cap on resident-pool materialization (Exact-FIRAL, K-Means)")
	ranks := flag.Int("ranks", 0, "in-process ranks per Dist-FIRAL round (0 = Dist-FIRAL not servable)")
	drain := flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight HTTP requests on shutdown")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: firald -data DIR [flags]\n\n"+
			"GOMAXPROCS sets the worker count every round runs with (now %d);\n"+
			"sessions share it and have no worker setting of their own.\n"+
			"Rounds stream their pool in row blocks sized by its row count alone.\n\n", parallel.Workers())
		flag.PrintDefaults()
	}
	flag.Parse()
	if *data == "" {
		return errors.New("firald: -data is required (session state and round checkpoints live there)")
	}

	srv, err := server.New(server.Config{
		DataDir:          *data,
		Concurrency:      *concurrency,
		QueueDepth:       *queue,
		MaxResidentBytes: *maxResident,
		Ranks:            *ranks,
		Logf:             log.Printf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	// Print the actual address so -addr :0 callers (tests, scripts) can
	// find the port.
	log.Printf("firald listening on %s (data %s, concurrency %d, queue %d, workers %d)",
		ln.Addr(), *data, *concurrency, *queue, parallel.Workers())
	fmt.Printf("listening %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	log.Printf("firald draining (%s grace)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("firald: http shutdown: %v", err)
	}
	// Interrupt running rounds; their checkpoints stay for the next start.
	if err := srv.Close(); err != nil {
		return err
	}
	log.Printf("firald stopped; interrupted rounds resume on next start")
	return nil
}
