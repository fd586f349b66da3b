package engine

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/tsfile"
	"repro/internal/winagg"
)

// plantUpgradeStore writes into dir a store of files older writers
// left: the three fixtures of parentAnswers in partition directories,
// and the golden v2 file once more at the root, as a flat-layout store
// kept it.
func plantUpgradeStore(t *testing.T, dir string) {
	t.Helper()
	plantFixture(t, "v2.gtsf", filepath.Join(dir, "p0", "L1", "seq-000001.gtsf"))
	plantFixture(t, "v3dup.gtsf", filepath.Join(dir, "p0", "L0", "seq-000002.gtsf"))
	plantFixture(t, "v3edge.gtsf", filepath.Join(dir, "p0", "L0", "unseq-000003.gtsf"))
	plantFixture(t, "v2.gtsf", filepath.Join(dir, "seq-000004.gtsf"))
}

// upgradeSensors are the sensors of parentAnswers' fixtures.
var upgradeSensors = []string{"a", "b", "c", "d", "s"}

// upgradeAnswers renders everything a planted upgrade store answers:
// every sensor in full and every window aggregate of each.
func upgradeAnswers(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	for _, s := range upgradeSensors {
		out, err := e.Query(s, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, s, out)
		for op := winagg.Count; op <= winagg.Last; op++ {
			w, err := e.AggregateWindows(s, 0, 400, 3, op)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(&b, op, w)
		}
	}
	return b.String()
}

// upgradeReference is what plantUpgradeStore's files answered before
// any upgrade: per sensor, parentAnswers' records of every fixture
// holding it. The fixtures share no timestamp except the golden v2
// file's two copies, which agree.
func upgradeReference(t *testing.T) string {
	t.Helper()
	want := map[string][]TV{}
	for _, sensors := range parentAnswers {
		for s, tvs := range sensors {
			want[s] = append(want[s], tvs...)
		}
	}
	for s, tvs := range want {
		slices.SortFunc(tvs, func(a, b TV) int { return cmp.Compare(a.T, b.T) })
		want[s] = slices.Compact(tvs)
	}
	e := openTest(t, Config{})
	for s, tvs := range want {
		for _, tv := range tvs {
			if err := e.Insert(s, tv.T, tv.V); err != nil {
				t.Fatal(err)
			}
		}
	}
	return upgradeAnswers(t, e)
}

// TestUpgradeCrashMatrix kills Open over a store of pre-strict files —
// upgrading them in place, then folding the root — at every filesystem
// operation. Whatever survived must reopen with every file strict and
// answer exactly what the un-upgraded files answered.
func TestUpgradeCrashMatrix(t *testing.T) {
	want := upgradeReference(t)
	for k := 1; ; k++ {
		dir := t.TempDir()
		plantUpgradeStore(t, dir)
		inj := faultfs.NewInjector(faultfs.OS, k)
		cfg := crashCfg(dir, inj)
		e, err := Open(cfg)
		if err == nil {
			e.Close()
		}
		if !inj.Crashed() {
			if err != nil {
				t.Fatalf("k=%d: open without a crash: %v", k, err)
			}
			t.Logf("matrix complete: %d injection points swept", k-1)
			return
		}
		cfg.FS = faultfs.OS
		re, err := Open(cfg)
		if err != nil {
			t.Fatalf("k=%d: recovery open: %v", k, err)
		}
		checkFolded(t, dir)
		checkStrictlyIncreasing(t, dir)
		checkServedStrict(t, re)
		if got := upgradeAnswers(t, re); got != want {
			t.Fatalf("k=%d: recovered store answers\n%s\nwant\n%s", k, got, want)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("k=%d: close after recovery: %v", k, err)
		}
		if k > 10000 {
			t.Fatal("matrix did not terminate; injector never exhausted")
		}
	}
}

// TestUpgradeSyncFailureKeepsFile fails the directory fsync after an
// upgrade's publishing rename. Open must fail, and the upgraded file,
// now the only copy of its data, must stay and serve on the next Open.
func TestUpgradeSyncFailureKeepsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p0", "L0", "seq-000001.gtsf")
	plantFixture(t, "v3edge.gtsf", path)
	renamed := false
	fs := &faultfs.HookFS{
		Under: faultfs.OS,
		Hook: func(op faultfs.Op, p string) error {
			if op == faultfs.OpRename && p == path+".tmp" {
				renamed = true
			} else if op == faultfs.OpSyncDir && renamed {
				return errors.New("injected: directory sync")
			}
			return nil
		},
	}
	cfg := Config{Dir: dir, SyncFlush: true, WAL: true, WALSync: WALSyncAlways, FS: fs}
	if e, err := Open(cfg); err == nil {
		e.Close()
		t.Fatal("Open succeeded with a failed directory sync")
	}
	if !renamed {
		t.Fatal("the upgrade never published")
	}
	if n := checkStrictlyIncreasing(t, dir); n != 1 {
		t.Fatalf("%d files after the failed sync, want the upgraded one", n)
	}
	cfg.FS = faultfs.OS
	e := openTest(t, cfg)
	for sensor, w := range parentAnswers["v3edge.gtsf"] {
		out, err := e.Query(sensor, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out, w) {
			t.Fatalf("%s reads %v, want %v", sensor, out, w)
		}
	}
}

// TestUpgradeQuarantinesCorruptFile plants a pre-strict partition file
// with a flipped byte inside a block — damage the index check does not
// see. The upgrade reads every block, so Open quarantines the file
// instead of upgrading or serving it.
func TestUpgradeQuarantinesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "p0", "L0", "seq-000001.gtsf")
	plantFixture(t, "v3dup.gtsf", bad)
	r, err := tsfile.Open(bad)
	if err != nil {
		t.Fatal(err)
	}
	b := r.Index()[1].Blocks[1]
	r.Close()
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	raw[b.Offset+b.Size/2] ^= 0xff
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	e := openTest(t, Config{Dir: dir})
	checkFolded(t, dir)
	if got := e.Stats().QuarantinedFiles; got != 1 || e.FileCount() != 0 {
		t.Fatalf("QuarantinedFiles = %d, FileCount = %d; want 1, 0", got, e.FileCount())
	}
	if _, err := os.Stat(bad + quarantineSuffix); err != nil {
		t.Fatal(err)
	}
}
