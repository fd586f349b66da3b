// Aggregation: windowed analytics over out-of-order ingestion — the
// paper's motivating downstream use ("computing the average speed of
// an engine in every minute"). Points arrive disordered; the engine
// sorts with Backward-Sort; the aggregation layer then computes
// correct per-window statistics, locally and over the TCP protocol.
//
//	go run ./examples/aggregation
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/shard"
)

func main() {
	dir, err := os.MkdirTemp("", "agg-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	store, err := shard.Open(shard.Config{
		Config:     engine.Config{Dir: dir, MemTableSize: 30000, Algorithm: "backward"},
		ShardCount: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	// 100k out-of-order points; generation interval is 1000 ticks, so
	// a "minute" window of 60 samples is 60,000 ticks.
	s := dataset.LogNormal(100000, 1, 2, 21)
	for i := range s.Times {
		if err := store.Insert("engine.speed", s.Times[i], 60+s.Values[i]); err != nil {
			log.Fatal(err)
		}
	}

	const window = 60000
	wins, err := query.WindowQuery(store, "engine.speed", 0, 10*window, window, query.Avg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("average engine speed per minute (first 10 windows):")
	for _, w := range wins {
		fmt.Printf("  [%8d, %8d): avg %.2f over %d samples\n", w.Start, w.Start+window, w.Value, w.Count)
	}

	maxWins, err := query.WindowQuery(store, "engine.speed", 0, 5*window, window, query.Max)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("peak speed per minute (first 5 windows):")
	for _, w := range maxWins {
		fmt.Printf("  [%8d, %8d): max %.2f\n", w.Start, w.Start+window, w.Value)
	}

	// The same aggregation over the wire, the way a dashboard would.
	srv := rpc.NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	client, err := rpc.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	remote, err := client.Aggregate("engine.speed", 0, 3*window, window, query.Count)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("remote count per minute (first 3 windows):")
	for _, w := range remote {
		fmt.Printf("  [%8d, %8d): %d points\n", w.Start, w.Start+window, w.Count)
	}
}
