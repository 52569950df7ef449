package mpi_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
)

// localFactory registers the in-process mailbox world with the shared
// conformance suite.
func localFactory(t testing.TB, p int) []mpi.Transport {
	return mpi.NewLocalWorld(p)
}

// tcpFactory bootstraps a loopback TCP group through the real
// rendezvous protocol (rank 0 listens on an ephemeral port, the other
// ranks dial it), so the suite exercises exactly the code path of
// `firal -peers`.
func tcpFactory(t testing.TB, p int) []mpi.Transport {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rz, err := mpi.ListenTCP("127.0.0.1:0", p)
	if err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	ts := make([]mpi.Transport, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ts[0], errs[0] = rz.Accept(ctx)
	}()
	for r := 1; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ts[r], errs[r] = mpi.DialTCP(ctx, rz.Addr(), r, p)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("bootstrap rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			tr.Close()
		}
	})
	return ts
}

func TestConformanceInProcess(t *testing.T) {
	mpitest.RunConformance(t, localFactory)
}

func TestConformanceTCPLoopback(t *testing.T) {
	mpitest.RunConformance(t, tcpFactory)
}
