package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"truthinference/internal/dataset"
	"truthinference/internal/stream"
)

func testBatches() []stream.Batch {
	return []stream.Batch{
		{NumTasks: 4, NumWorkers: 3},
		{Answers: []dataset.Answer{
			{Task: 0, Worker: 0, Value: 1}, {Task: 1, Worker: 1, Value: 0}, {Task: 2, Worker: 2, Value: 1},
		}},
		{Answers: []dataset.Answer{
			{Task: 3, Worker: 0, Value: 0}, {Task: 0, Worker: 2, Value: 1},
		}, Truth: map[int]float64{0: 1, 3: 0}},
	}
}

// ingestAll drives batches through a fresh store, appending each to the
// log (mirroring what Service+Persister do together).
func ingestAll(t *testing.T, l *Log, batches []stream.Batch) *stream.Store {
	t.Helper()
	store, err := stream.NewStore("wal-test", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		v, _, err := store.Ingest(b)
		if err != nil {
			t.Fatal(err)
		}
		if l != nil {
			if err := l.Append(v, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store
}

// requireIdentical asserts two stores are bit-identical: version, dims,
// answers in global order, truths.
func requireIdentical(t *testing.T, got, want *stream.Store) {
	t.Helper()
	if got.Version() != want.Version() {
		t.Fatalf("version %d, want %d", got.Version(), want.Version())
	}
	gd, gv := got.Snapshot()
	wd, wv := want.Snapshot()
	if gv != wv {
		t.Fatalf("snapshot version %d, want %d", gv, wv)
	}
	if gd.NumTasks != wd.NumTasks || gd.NumWorkers != wd.NumWorkers {
		t.Fatalf("dims %d/%d, want %d/%d", gd.NumTasks, gd.NumWorkers, wd.NumTasks, wd.NumWorkers)
	}
	if !reflect.DeepEqual(gd.Answers, wd.Answers) {
		t.Fatalf("answers differ:\n got %v\nwant %v", gd.Answers, wd.Answers)
	}
	if !reflect.DeepEqual(gd.Truth, wd.Truth) {
		t.Fatalf("truths differ: got %v, want %v", gd.Truth, wd.Truth)
	}
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	want := ingestAll(t, l, testBatches())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := stream.NewStore("wal-test", dataset.Decision, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, n, rerr := Replay(path, func(version uint64, b stream.Batch) error {
		_, _, err := got.Ingest(b)
		return err
	})
	if rerr != nil {
		t.Fatalf("replay: %v", rerr)
	}
	if n != len(testBatches()) {
		t.Fatalf("replayed %d records, want %d", n, len(testBatches()))
	}
	requireIdentical(t, got, want)
}

func TestReplayStopsAtCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, l, testBatches())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries: scan once to collect offsets.
	var bounds []int64
	if _, _, err := Replay(path, func(uint64, stream.Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	off := int64(len(logMagic))
	for _, rec := range splitRecords(t, clean) {
		bounds = append(bounds, off)
		off += int64(len(rec))
	}

	cases := map[string]struct {
		data   []byte
		prefix int // intact records expected before the damage
	}{
		"truncated mid-payload":  {clean[:bounds[2]+5], 2},
		"truncated mid-header":   {clean[:bounds[1]+3], 1},
		"flipped payload byte":   {flip(clean, int(bounds[2])+frameLen+2), 2},
		"flipped crc byte":       {flip(clean, int(bounds[2])+4), 2},
		"oversize length header": {overwriteLen(clean, int(bounds[2]), maxRecordLen+1), 2},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "c.wal")
			if err := os.WriteFile(p, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			var versions []uint64
			goodOff, n, rerr := Replay(p, func(v uint64, _ stream.Batch) error {
				versions = append(versions, v)
				return nil
			})
			if rerr == nil {
				t.Fatal("corrupt log replayed cleanly")
			}
			var ce *CorruptError
			if !asCorrupt(rerr, &ce) {
				t.Fatalf("replay error is %T (%v), want *CorruptError", rerr, rerr)
			}
			if n != tc.prefix || len(versions) != tc.prefix {
				t.Fatalf("intact prefix delivered %d records (%v), want the first %d", n, versions, tc.prefix)
			}
			for i, v := range versions {
				if v != uint64(i+1) {
					t.Fatalf("prefix versions %v out of order", versions)
				}
			}
			if goodOff != bounds[tc.prefix] {
				t.Fatalf("good offset %d, want %d", goodOff, bounds[tc.prefix])
			}
		})
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	store := ingestAll(t, nil, testBatches())
	d, version := store.Snapshot()
	path := filepath.Join(t.TempDir(), "t.snap")
	if err := WriteSnapshot(path, d, version); err != nil {
		t.Fatal(err)
	}
	gotD, gotV, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotV != version {
		t.Fatalf("version %d, want %d", gotV, version)
	}
	if !reflect.DeepEqual(gotD.Answers, d.Answers) || !reflect.DeepEqual(gotD.Truth, d.Truth) {
		t.Fatal("snapshot round-trip altered the dataset")
	}

	// Corruption in the dataset bytes must be caught by the CRC.
	raw, _ := os.ReadFile(path)
	bad := flip(raw, len(raw)-1)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSnapshot(path); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
}

func TestOpenRecoversSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "store")
	fresh := func() (*stream.Store, error) { return stream.NewStore("wal-test", dataset.Decision, 2) }

	// Run 1: snapshot after every 2 records, so the state is split
	// across a snapshot and a live WAL record; then "crash" (no Close).
	p, rec, err := Open(base, fresh, Options{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotVersion != 0 || rec.Replayed != 0 {
		t.Fatalf("fresh open recovered something: %+v", rec)
	}
	want, err := fresh()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range testBatches() {
		v, _, err := rec.Store.Ingest(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Record(v, b); err != nil {
			t.Fatal(err)
		}
		if _, _, err := want.Ingest(b); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			// Record 2 kicked the background compaction; wait it out
			// before batch 3 lands so the snapshot deterministically
			// covers exactly versions 1–2.
			p.waitIdle()
		}
	}
	// 3 records, SnapshotEvery=2 → one compaction happened; the .snap
	// must exist and the live WAL hold exactly one record.
	if _, err := os.Stat(base + ".snap"); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}

	// Run 2: recover.
	p2, rec2, err := Open(base, fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rec2.TailErr != nil {
		t.Fatalf("clean files reported tail corruption: %v", rec2.TailErr)
	}
	if rec2.SnapshotVersion != 2 || rec2.Replayed != 1 {
		t.Fatalf("recovered snapshot@%d + %d records, want snapshot@2 + 1", rec2.SnapshotVersion, rec2.Replayed)
	}
	requireIdentical(t, rec2.Store, want)
}

// TestOpenSkipsRecordsCoveredBySnapshot pins the crash window between a
// snapshot rename and the WAL reset: old records at versions the
// snapshot already covers are skipped, not double-applied.
func TestOpenSkipsRecordsCoveredBySnapshot(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "store")
	fresh := func() (*stream.Store, error) { return stream.NewStore("wal-test", dataset.Decision, 2) }

	l, err := Create(base + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	want := ingestAll(t, l, testBatches())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Snapshot covers version 2 of 3; the full WAL (versions 1..3) stays.
	ref, _ := fresh()
	for _, b := range testBatches()[:2] {
		if _, _, err := ref.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	d, v := ref.Snapshot()
	if err := WriteSnapshot(base+".snap", d, v); err != nil {
		t.Fatal(err)
	}

	p, rec, err := Open(base, fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if rec.SnapshotVersion != 2 || rec.Replayed != 1 {
		t.Fatalf("recovered snapshot@%d + %d replayed, want snapshot@2 + 1 (2 skipped)", rec.SnapshotVersion, rec.Replayed)
	}
	requireIdentical(t, rec.Store, want)
}

func TestOpenTruncatesCorruptTailAndContinues(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "store")
	fresh := func() (*stream.Store, error) { return stream.NewStore("wal-test", dataset.Decision, 2) }

	l, err := Create(base + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, l, testBatches())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half, as a crash mid-append would.
	raw, _ := os.ReadFile(base + ".wal")
	if err := os.WriteFile(base+".wal", raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	p, rec, err := Open(base, fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TailErr == nil {
		t.Fatal("torn tail not reported")
	}
	if rec.Replayed != 2 || rec.Store.Version() != 2 {
		t.Fatalf("recovered %d records to version %d, want the 2-record prefix", rec.Replayed, rec.Store.Version())
	}
	// The damaged tail is gone: appending and re-recovering works.
	b := stream.Batch{Answers: []dataset.Answer{{Task: 1, Worker: 2, Value: 1}}}
	v, _, err := rec.Store.Ingest(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Record(v, b); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, rec2, err := Open(base, fresh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if rec2.TailErr != nil {
		t.Fatalf("tail corruption persisted across truncation: %v", rec2.TailErr)
	}
	requireIdentical(t, rec2.Store, rec.Store)
}

// TestCompactionFailureDoesNotWedgePersister pins the degraded-disk
// behavior: when compaction cannot write its files, Record still
// succeeds (the batch IS in the log), Sync surfaces the pending
// failure, and once the disk heals the next compaction succeeds and
// Sync goes quiet — the persister is never left wedged on a closed or
// half-swapped log.
func TestCompactionFailureDoesNotWedgePersister(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "state")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "store")
	fresh := func() (*stream.Store, error) { return stream.NewStore("wal-test", dataset.Decision, 2) }

	p, rec, err := Open(base, fresh, Options{SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	record := func(b stream.Batch) error {
		v, _, err := rec.Store.Ingest(b)
		if err != nil {
			t.Fatal(err)
		}
		return p.Record(v, b)
	}

	// Break the "disk": the directory disappears, so snapshot tmp files
	// cannot be created, but the already-open log fd keeps working.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := record(stream.Batch{NumTasks: 2, NumWorkers: 2}); err != nil {
		t.Fatalf("Record failed although the append succeeded: %v", err)
	}
	p.waitIdle() // the failed background compaction settles
	if err := p.Sync(); err == nil {
		t.Fatal("Sync hid the pending compaction failure")
	}
	if err := p.Snapshot(); err == nil {
		t.Fatal("synchronous Snapshot succeeded on a missing directory")
	}

	// Heal the disk: the next Record retries the compaction.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := record(stream.Batch{Answers: []dataset.Answer{{Task: 0, Worker: 0, Value: 1}}}); err != nil {
		t.Fatalf("Record after healing: %v", err)
	}
	p.waitIdle()
	if err := p.Sync(); err != nil {
		t.Fatalf("Sync still failing after successful compaction: %v", err)
	}
	if _, err := os.Stat(base + ".snap"); err != nil {
		t.Fatalf("healed compaction wrote no snapshot: %v", err)
	}
}

// TestSyncDir pins the directory-sync contract the snapshot, log-swap
// and manifest renames rely on: a real directory syncs, a missing one is
// an error, and only "cannot sync a directory" errors count as success.
func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("SyncDir(missing) = %v, want ErrNotExist", err)
	}
	for _, errno := range []syscall.Errno{syscall.EINVAL, syscall.ENOTSUP} {
		if err := unsupportedOK(&os.PathError{Op: "sync", Path: "d", Err: errno}); err != nil {
			t.Errorf("unsupportedOK(%v) = %v, want nil", errno, err)
		}
	}
	if err := unsupportedOK(&os.PathError{Op: "sync", Path: "d", Err: syscall.EIO}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("unsupportedOK(EIO) = %v, want EIO", err)
	}
}

// TestOpenRefusesVersionGap pins the restore-mistake path: a snapshot
// from one history next to a log from another (the log's first
// unapplied record is not snapshot version + 1) must fail Open loudly —
// and must NOT truncate the intact records, which are valid data the
// operator may still need.
func TestOpenRefusesVersionGap(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "store")
	fresh := func() (*stream.Store, error) { return stream.NewStore("wal-test", dataset.Decision, 2) }

	l, err := Create(base + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	// Records claiming versions 5 and 6 — as if the matching snapshot
	// (at version 4) was lost or replaced by an older backup.
	for v, b := range map[uint64]stream.Batch{
		5: {Answers: []dataset.Answer{{Task: 0, Worker: 0, Value: 1}}, NumTasks: 2, NumWorkers: 2},
		6: {Answers: []dataset.Answer{{Task: 1, Worker: 1, Value: 0}}},
	} {
		if err := l.Append(v, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(base + ".wal")
	if err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(base, fresh, Options{})
	if err == nil || !strings.Contains(err.Error(), "version gap") {
		t.Fatalf("Open with a version gap: %v, want a hard version-gap error", err)
	}
	after, err := os.ReadFile(base + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("refused Open still modified the log file")
	}
}

// TestOpenRewritesMagiclessLog pins the crash-inside-Create window: a
// zero-byte (or magic-torn) log must be rewritten with a fresh magic,
// so batches appended after recovery survive the NEXT restart instead
// of being discarded as one big bad-magic file.
func TestOpenRewritesMagiclessLog(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "store")
	fresh := func() (*stream.Store, error) { return stream.NewStore("wal-test", dataset.Decision, 2) }

	for name, contents := range map[string][]byte{
		"zero-byte":  {},
		"torn magic": []byte("TIW"),
		"bad magic":  []byte("GARBAGEGARBAGE"),
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(base+".wal", contents, 0o644); err != nil {
				t.Fatal(err)
			}
			os.Remove(base + ".snap")
			p, rec, err := Open(base, fresh, Options{})
			if err != nil {
				t.Fatalf("Open on %s log: %v", name, err)
			}
			if rec.TailErr == nil {
				t.Error("damaged magic not reported")
			}
			b := stream.Batch{Answers: []dataset.Answer{{Task: 0, Worker: 0, Value: 1}}}
			v, _, err := rec.Store.Ingest(b)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Record(v, b); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			// The batch recorded after recovery must survive the next
			// restart — this is exactly what silently appending to a
			// magic-less file would lose.
			p2, rec2, err := Open(base, fresh, Options{})
			if err != nil {
				t.Fatalf("re-open: %v", err)
			}
			defer p2.Close()
			if rec2.TailErr != nil {
				t.Fatalf("rewritten log still reads as damaged: %v", rec2.TailErr)
			}
			if rec2.Replayed != 1 || rec2.Store.Version() != 1 {
				t.Fatalf("post-recovery batch lost: replayed %d, version %d", rec2.Replayed, rec2.Store.Version())
			}
		})
	}
}

// --- helpers ---

// splitRecords cuts a clean log file into its framed records.
func splitRecords(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var recs [][]byte
	off := len(logMagic)
	for off < len(data) {
		plen := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		recs = append(recs, data[off:off+frameLen+plen])
		off += frameLen + plen
	}
	return recs
}

func flip(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0xFF
	return out
}

func overwriteLen(data []byte, off int, v uint32) []byte {
	out := append([]byte(nil), data...)
	out[off] = byte(v)
	out[off+1] = byte(v >> 8)
	out[off+2] = byte(v >> 16)
	out[off+3] = byte(v >> 24)
	return out
}

func asCorrupt(err error, target **CorruptError) bool {
	return errors.As(err, target)
}
