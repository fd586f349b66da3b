// Command tsql is an interactive shell over the storage engine,
// speaking the small SQL dialect of internal/tsql — the same shape of
// statements the paper's benchmark issues against IoTDB.
//
//	tsql -dir ./data -algo backward
//	> INSERT INTO room.temp VALUES (1, 20.5), (2, 21.0)
//	> SELECT * FROM room.temp WHERE time >= 1 AND time <= 2
//	> SELECT avg(value) FROM room.temp GROUP BY WINDOW(60000)
//	> STATS
//	> FLUSH
//	> COMPACT
//
// The store is always the shard router (-shards 1 by default, data
// under <dir>/shard-NNN/), so the label data model is available too:
// series are named by label sets and queried by selector, fanning out
// across the matching series.
//
//	tsql -dir ./data -shards 4
//	> INSERT INTO series{host="a", metric="cpu"} VALUES (1, 0.5)
//	> SELECT * FROM series{host="a", metric=~"cpu|mem"}
//	> SELECT sum(value) FROM series{region=~"west-.*"} GROUP BY WINDOW(60000)
//
// Statements may also be piped on stdin, one per line.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/tsql"
)

func main() {
	dir := flag.String("dir", "", "data directory (required)")
	algo := flag.String("algo", "backward", "sorting algorithm")
	memtable := flag.Int("memtable", engine.DefaultMemTableSize, "memtable flush threshold (points, per shard)")
	walOn := flag.Bool("wal", false, "enable the write-ahead log")
	shards := flag.Int("shards", 1, "hash-routed engine shards (0 = GOMAXPROCS); must match an existing -dir; STATS prints the per-shard breakdown")
	partitionDuration := flag.Int64("partition-duration", engine.DefaultPartitionDuration, "time-partition width in timestamp units, one week of nanoseconds by default; files live under shard-NNN/p<epoch>/L<n>/")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "tsql: -dir is required")
		os.Exit(2)
	}
	router, err := shard.Open(shard.Config{
		Config: engine.Config{
			Dir:               *dir,
			MemTableSize:      *memtable,
			Algorithm:         *algo,
			WAL:               *walOn,
			PartitionDuration: *partitionDuration,
		},
		ShardCount: *shards,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsql: %v\n", err)
		os.Exit(1)
	}
	defer router.Close()

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("> ")
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		switch strings.ToUpper(line) {
		case "":
			fmt.Print("> ")
			continue
		case "QUIT", "EXIT":
			return
		}
		res, err := tsql.Run(router, line)
		if err != nil {
			fmt.Printf("error: %v\n> ", err)
			continue
		}
		printResult(res)
		fmt.Print("> ")
	}
}

func printResult(res *tsql.Result) {
	if res.Message != "" {
		fmt.Println(res.Message)
		return
	}
	fmt.Println(strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		fmt.Println(strings.Join(row, "\t"))
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}
