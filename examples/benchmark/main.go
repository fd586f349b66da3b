// Benchmark: compare Backward-Sort against Quicksort and Timsort
// inside the full system — a client-server benchmark run over TCP, the
// shape of the paper's Figures 13–21 (one cell each).
//
//	go run ./examples/benchmark
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/rpc"
	"repro/internal/shard"
)

func main() {
	fmt.Println("write-pct=0.90, LogNormal(1,4), batch=500, 4 clients over TCP")
	fmt.Printf("%-10s %14s %12s %12s %14s\n",
		"algo", "query pts/s", "flush ms", "sort ms", "total latency")
	for _, algo := range []string{"backward", "quick", "tim"} {
		res, err := runOne(algo)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %14.0f %12.3f %12.3f %14v\n",
			algo, res.QueryThroughput, res.AvgFlushMillis, res.AvgSortMillis, res.TotalLatency)
	}
}

func runOne(algo string) (bench.Result, error) {
	dir, err := os.MkdirTemp("", "bench-example-*")
	if err != nil {
		return bench.Result{}, err
	}
	defer os.RemoveAll(dir)

	store, err := shard.Open(shard.Config{
		Config:     engine.Config{Dir: dir, MemTableSize: 50000, Algorithm: algo},
		ShardCount: 1,
	})
	if err != nil {
		return bench.Result{}, err
	}
	defer store.Close()

	srv := rpc.NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return bench.Result{}, err
	}
	defer srv.Close()

	client, err := rpc.Dial(addr)
	if err != nil {
		return bench.Result{}, err
	}
	defer client.Close()

	return bench.Run(client, bench.Config{
		WritePercent: 0.9,
		BatchSize:    500,
		Operations:   400,
		Devices:      4,
		Dataset:      "lognormal",
		Mu:           1,
		Sigma:        4,
		Clients:      4,
		Seed:         1,
	})
}
