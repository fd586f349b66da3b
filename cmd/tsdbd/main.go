// Command tsdbd runs the storage engine as a standalone TCP server, so
// tsbench can drive it client-server the way IoTDB-benchmark drives an
// IoTDB server. The server always runs the storage-group layer:
// sensors are hash-partitioned across -shards N independent engine
// shards (default 1, 0 = one per core), each with its own directory
// <dir>/shard-NNN/, WAL and memtable budget, sharing one machine-wide
// flush worker bound and one label index.
//
//	tsdbd -addr 127.0.0.1:6668 -dir ./data -algo backward
//	tsdbd -addr 127.0.0.1:6668 -dir ./data -shards 0   # GOMAXPROCS shards
//	tsdbd -addr 127.0.0.1:6668 -dir ./data -http :8086 # + HTTP line-protocol gateway
//
// With -http the server also exposes the InfluxDB-style HTTP gateway
// (POST /write line protocol, GET /query, GET /stats). Both front
// ends share one bounded dispatch queue (-ingest-queue slots drained
// by -ingest-workers), so overload rejects uniformly: the binary
// protocol answers status "overloaded" with a retry-after hint, HTTP
// answers 429 with a Retry-After header.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/httpgw"
	"repro/internal/ingestq"
	"repro/internal/rpc"
	"repro/internal/shard"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6668", "listen address")
	dir := flag.String("dir", "", "data directory (required)")
	algo := flag.String("algo", "backward", "sorting algorithm")
	memtable := flag.Int("memtable", engine.DefaultMemTableSize, "memtable flush threshold (points, per shard)")
	walOn := flag.Bool("wal", false, "enable the write-ahead log")
	walSync := flag.String("wal-sync", engine.WALSyncNone, "WAL durability policy: none, interval, or always (non-none implies -wal)")
	rpcTimeout := flag.Duration("rpc-timeout", 0, "per-exchange connection deadline for reads and writes (0 = none)")
	httpAddr := flag.String("http", "", "HTTP gateway listen address, e.g. :8086 (empty = no gateway)")
	ingestQueue := flag.Int("ingest-queue", 0, "bounded dispatch queue slots shared by the rpc and HTTP front ends (0 = default)")
	ingestWorkers := flag.Int("ingest-workers", 0, "ingest worker pool size shared by both front ends (0 = GOMAXPROCS)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close connections idle longer than this, reclaiming their goroutines (0 = never)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful shutdown drain deadline on SIGTERM/SIGINT")
	shards := flag.Int("shards", 1, "hash-routed engine shards (0 = GOMAXPROCS); must match an existing -dir")
	flushWorkers := flag.Int("flush-workers", 0, "most sensor chunks sorted and encoded at once by flushes, one bound across all shards (0 = GOMAXPROCS)")
	paperProfile := flag.Bool("paper-profile", false, "run as the paper benchmarked IoTDB: queries sort under the engine lock, every sort takes the interface path, working chunks are List<Array> of 32; off, every sort is the flat kernel in place")
	partitionDuration := flag.Int64("partition-duration", engine.DefaultPartitionDuration, "time-partition width in timestamp units, one week of nanoseconds by default; files live under shard-NNN/p<epoch>/L<n>/ and whole partitions drop in O(1)")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "tsdbd: -dir is required")
		os.Exit(2)
	}
	if *walSync != engine.WALSyncNone {
		*walOn = true // a sync policy is meaningless without the log
	}
	router, err := shard.Open(shard.Config{
		Config: engine.Config{
			Dir:               *dir,
			MemTableSize:      *memtable,
			Algorithm:         *algo,
			WAL:               *walOn,
			WALSync:           *walSync,
			FlushWorkers:      *flushWorkers,
			PaperProfile:      *paperProfile,
			PartitionDuration: *partitionDuration,
		},
		ShardCount: *shards,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsdbd: %v\n", err)
		os.Exit(1)
	}
	// One bounded dispatch queue feeds both front ends: pipelined RPC
	// connections and HTTP /write submit to the same slots, so the two
	// saturate — and shed load — together.
	queue := ingestq.New(*ingestQueue, *ingestWorkers)
	srv := rpc.NewServer(router)
	srv.SetTimeouts(*rpcTimeout, *rpcTimeout)
	srv.SetIdleTimeout(*idleTimeout)
	srv.SetIngestQueue(queue)
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsdbd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("tsdbd listening on %s (algo=%s, memtable=%d, shards=%d, wal-sync=%s)\n", bound, *algo, *memtable, router.ShardCount(), *walSync)

	var gw *httpgw.Gateway
	var httpSrv *http.Server
	if *httpAddr != "" {
		gw = httpgw.New(router, queue)
		httpSrv = &http.Server{Handler: gw.Handler()}
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsdbd: http: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("tsdbd http gateway on %s (queue=%d, workers=%d)\n",
			ln.Addr(), queue.Stats().Capacity, queue.Stats().Workers)
		go func() {
			if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "tsdbd: http: %v\n", err)
			}
		}()
	}

	// SIGTERM/SIGINT trigger a graceful shutdown: drain in-flight
	// requests, then close the engine so the final flush runs with no
	// writers racing it. A second signal aborts the drain.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("tsdbd: draining")
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "tsdbd: http shutdown: %v\n", err)
		}
		cancel()
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(*drainTimeout) }()
	select {
	case err := <-drained:
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsdbd: shutdown: %v\n", err)
		}
	case <-sig:
		fmt.Fprintln(os.Stderr, "tsdbd: forced shutdown")
		srv.Close()
	}
	// Both front ends have stopped submitting; the shared queue can
	// drain and close.
	queue.Close()
	if gw != nil {
		gw.Close()
	}
	if err := router.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "tsdbd: engine close: %v\n", err)
		os.Exit(1)
	}
}
