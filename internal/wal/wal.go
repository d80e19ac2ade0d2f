// Package wal implements the write-ahead log behind the engine's crash
// durability (DESIGN.md §8). The log is an append-only stream of
// checksummed frames, one frame per transaction (a DML statement or a DDL
// operation): either the whole frame is durable or the transaction never
// happened, so recovery needs no undo and a torn tail — a frame cut short
// by a crash mid-write — is simply discarded.
//
// Commit protocol: AppendTxn buffers the frame into the file under the
// append mutex (establishing the global transaction order) and returns its
// end offset (the LSN). WaitDurable(lsn) then blocks until an fsync covers
// that offset. Fsyncs are group-committed: the first waiter becomes the
// sync leader, sleeps a short coalescing window so concurrent commits can
// pile on, and issues one fsync for the whole batch — under a commit burst
// the fsync cost amortizes across every statement in the window.
//
// Checkpoint rewrites the log as a compacted equivalent (schema + live
// rows), fsyncs the replacement, and atomically renames it over the live
// log, so the log's length is bounded by the database size rather than its
// write history.
//
// Crash points are injected deterministically through Hooks, in the
// internal/faultsrc idiom: a hook that returns ErrSimulatedCrash poisons
// the log (every later append or sync fails), freezing the durable prefix
// exactly as a process crash at that instant would. Tests then recover
// from that prefix and assert on what survived.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"syscall"
	"time"

	"genalg/internal/obs"
)

// RecType enumerates the logical operations a frame can carry.
type RecType uint8

// The record types. DML records carry encoded row bytes; deletes are
// content-addressed (the stored bytes of the doomed row) so replay does
// not depend on heap placement determinism. DDL records carry a JSON
// payload owned by the db layer.
const (
	RecInsert RecType = iota + 1
	RecDelete
	RecCreateTable
	RecCreateIndex
)

// String implements fmt.Stringer.
func (t RecType) String() string {
	switch t {
	case RecInsert:
		return "insert"
	case RecDelete:
		return "delete"
	case RecCreateTable:
		return "create-table"
	case RecCreateIndex:
		return "create-index"
	}
	return fmt.Sprintf("rectype(%d)", uint8(t))
}

// Record is one logical operation inside a transaction frame.
type Record struct {
	Type RecType
	// Table names the target relation for DML records.
	Table string
	// Data holds the encoded row (insert/delete) or the DDL JSON payload.
	Data []byte
}

// Txn is one recovered transaction: the records of a single durable frame,
// in append order.
type Txn struct {
	// Seq is the transaction's sequence number at append time.
	Seq uint64
	// Records are the transaction's operations, applied in order.
	Records []Record
}

// ErrSimulatedCrash is returned by crash hooks to freeze the log at an
// injected crash point; every subsequent operation fails with it.
var ErrSimulatedCrash = errors.New("wal: simulated crash")

// Hooks are deterministic fault-injection points (test-only; all nil in
// production). A hook returning an error — conventionally
// ErrSimulatedCrash — aborts the operation and poisons the log.
type Hooks struct {
	// AfterAppend runs after a frame's bytes reach the file but before the
	// transaction can become durable (crash-after-append: the tail may be
	// lost or torn).
	AfterAppend func(lsn int64) error
	// BeforeSync runs immediately before an fsync (crash-mid-fsync: the
	// batch's bytes are written but none are guaranteed durable).
	BeforeSync func() error
	// AfterSync runs after a successful fsync with the covered offset.
	AfterSync func(lsn int64) error
	// BeforeCheckpointRename runs after the replacement log is written and
	// fsynced but before it replaces the live log (crash-before-checkpoint:
	// recovery must use the old log and ignore the orphaned rewrite).
	BeforeCheckpointRename func() error
}

// Options configures a Log.
type Options struct {
	// GroupWindow is how long a sync leader waits for concurrent commits
	// to join its fsync. 0 means sync immediately (no coalescing);
	// DefaultGroupWindow is a good production value.
	GroupWindow time.Duration
	// Registry receives the log's metrics; nil uses obs.Default.
	Registry *obs.Registry
	// Hooks inject deterministic crash points; zero value in production.
	Hooks Hooks
}

// DefaultGroupWindow is the fsync-coalescing window used by genalgd: long
// enough to batch a commit burst, short enough to be invisible at
// interactive latencies.
const DefaultGroupWindow = 500 * time.Microsecond

// frame layout: u32 payload length, u32 CRC-32C of the payload, payload.
// payload: u64 seq, u32 record count, then per record: u8 type,
// u16 table length + bytes, u32 data length + bytes.
const frameHdrLen = 8

// MaxFrameLen bounds a single transaction frame (and therefore a single
// DML statement's logged volume); a length prefix beyond it is treated as
// corruption during recovery.
const MaxFrameLen = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is an open write-ahead log positioned for append.
type Log struct {
	path string
	reg  *obs.Registry

	// mu serializes appends and protects the fields below.
	mu       sync.Mutex
	f        *os.File
	appended int64 // file offset after the last appended frame
	seq      uint64
	broken   error // sticky failure: set once, fails everything after

	// syncMu guards the group-commit state.
	syncMu  sync.Mutex
	synced  int64 // highest offset covered by a successful fsync
	syncing bool
	syncCh  chan struct{} // closed and replaced on every sync completion

	window time.Duration
	hooks  Hooks
}

// Recovery reports what Open found in an existing log.
type Recovery struct {
	// Txns is the number of durable transactions replayable from the log.
	Txns int
	// ValidBytes is the length of the durable prefix.
	ValidBytes int64
	// TornBytes is how many trailing bytes were discarded as a torn or
	// corrupt tail (0 for a cleanly closed log).
	TornBytes int64
}

// Open reads the log at path (creating it if absent), decodes its durable
// prefix, truncates any torn tail, and returns the log positioned for
// append plus the recovered transactions in append order. A leftover
// checkpoint rewrite (path + ".ckpt", orphaned by a crash before rename)
// is removed: the live log is authoritative until the rename happens.
//
// A Log holds an exclusive flock on its file until Close, so a second
// Open of a live log — another process, or another engine in this one —
// fails with ErrLocked instead of interleaving appends. The kernel drops
// the lock when the holder dies, so recovery after a crash is unaffected.
func Open(path string, opts Options) (*Log, []Txn, Recovery, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, Recovery{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if err := lockLive(f, path); err != nil {
		f.Close()
		return nil, nil, Recovery{}, err
	}
	if err := removeStaleCheckpoint(path); err != nil {
		f.Close()
		return nil, nil, Recovery{}, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, Recovery{}, fmt.Errorf("wal: read %s: %w", path, err)
	}
	txns, validLen := Decode(data)
	rec := Recovery{Txns: len(txns), ValidBytes: validLen, TornBytes: int64(len(data)) - validLen}
	if rec.TornBytes > 0 {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, nil, Recovery{}, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, Recovery{}, fmt.Errorf("wal: syncing truncation of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		f.Close()
		return nil, nil, Recovery{}, fmt.Errorf("wal: seeking %s: %w", path, err)
	}
	l := &Log{
		path:     path,
		reg:      opts.registry(),
		f:        f,
		appended: validLen,
		synced:   validLen,
		syncCh:   make(chan struct{}),
		window:   opts.GroupWindow,
		hooks:    opts.Hooks,
	}
	if len(txns) > 0 {
		l.seq = txns[len(txns)-1].Seq
	}
	return l, txns, rec, nil
}

func (o Options) registry() *obs.Registry {
	if o.Registry != nil {
		return o.Registry
	}
	return obs.Default
}

// ErrLocked reports that another open Log holds the file.
var ErrLocked = errors.New("wal: log is open elsewhere")

// lockLive takes the exclusive, non-blocking flock that makes f's holder
// the log's only writer. Having locked f, it re-checks that f is still the
// file at path: a checkpoint may have renamed a locked replacement over
// it in the meantime, leaving f an unlinked former log.
func lockLive(f *os.File, path string) error {
	if err := flock(f); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrLocked, path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat %s: %w", path, err)
	}
	if cur, err := os.Stat(path); err != nil || !os.SameFile(fi, cur) {
		return fmt.Errorf("%w: %s: replaced by a checkpoint while opening", ErrLocked, path)
	}
	return nil
}

// flock takes an exclusive, non-blocking lock on f. It is released when
// f is closed (or its process exits).
func flock(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
}

// removeStaleCheckpoint deletes an orphaned checkpoint rewrite left by a
// crash between writing path+".ckpt" and renaming it over the live log.
func removeStaleCheckpoint(path string) error {
	ckpt := path + ".ckpt"
	if _, err := os.Stat(ckpt); err == nil {
		if err := os.Remove(ckpt); err != nil {
			return fmt.Errorf("wal: removing stale checkpoint %s: %w", ckpt, err)
		}
	}
	return nil
}

// Decode parses data as a frame stream, returning the transactions of
// every complete, checksum-valid frame prefix and the byte length of that
// durable prefix. Decoding stops at the first torn or corrupt frame; the
// remainder is the caller's torn tail.
func Decode(data []byte) ([]Txn, int64) {
	var txns []Txn
	off := 0
	for {
		if off+frameHdrLen > len(data) {
			break
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		want := binary.LittleEndian.Uint32(data[off+4:])
		if plen <= 0 || plen > MaxFrameLen || off+frameHdrLen+plen > len(data) {
			break
		}
		payload := data[off+frameHdrLen : off+frameHdrLen+plen]
		if crc32.Checksum(payload, crcTable) != want {
			break
		}
		txn, ok := decodePayload(payload)
		if !ok {
			break
		}
		txns = append(txns, txn)
		off += frameHdrLen + plen
	}
	return txns, int64(off)
}

func decodePayload(p []byte) (Txn, bool) {
	if len(p) < 12 {
		return Txn{}, false
	}
	txn := Txn{Seq: binary.LittleEndian.Uint64(p)}
	count := int(binary.LittleEndian.Uint32(p[8:]))
	off := 12
	for i := 0; i < count; i++ {
		if off+3 > len(p) {
			return Txn{}, false
		}
		r := Record{Type: RecType(p[off])}
		tlen := int(binary.LittleEndian.Uint16(p[off+1:]))
		off += 3
		if off+tlen+4 > len(p) {
			return Txn{}, false
		}
		r.Table = string(p[off : off+tlen])
		off += tlen
		dlen := int(binary.LittleEndian.Uint32(p[off:]))
		off += 4
		if dlen < 0 || off+dlen > len(p) {
			return Txn{}, false
		}
		r.Data = append([]byte(nil), p[off:off+dlen]...)
		off += dlen
		txn.Records = append(txn.Records, r)
	}
	if off != len(p) {
		return Txn{}, false
	}
	return txn, true
}

// encodeFrame renders a transaction as one checksummed frame.
func encodeFrame(seq uint64, recs []Record) []byte {
	plen := 12
	for _, r := range recs {
		plen += 3 + len(r.Table) + 4 + len(r.Data)
	}
	buf := make([]byte, frameHdrLen+plen)
	payload := buf[frameHdrLen:]
	binary.LittleEndian.PutUint64(payload, seq)
	binary.LittleEndian.PutUint32(payload[8:], uint32(len(recs)))
	off := 12
	for _, r := range recs {
		payload[off] = byte(r.Type)
		binary.LittleEndian.PutUint16(payload[off+1:], uint16(len(r.Table)))
		off += 3
		off += copy(payload[off:], r.Table)
		binary.LittleEndian.PutUint32(payload[off:], uint32(len(r.Data)))
		off += 4
		off += copy(payload[off:], r.Data)
	}
	binary.LittleEndian.PutUint32(buf, uint32(plen))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	return buf
}

// AppendTxn appends one transaction frame and returns the LSN (file offset
// after the frame) to pass to WaitDurable. The append order under the
// internal mutex is the global transaction order; callers serialize their
// state mutation with their own append so the two orders agree.
func (l *Log) AppendTxn(recs []Record) (int64, error) {
	if len(recs) == 0 {
		return 0, fmt.Errorf("wal: empty transaction")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return 0, l.broken
	}
	l.seq++
	frame := encodeFrame(l.seq, recs)
	//genalgvet:ignore lockorder l.mu is the append mutex: the file write must happen inside it so the on-disk frame order equals the transaction order
	if _, err := l.f.Write(frame); err != nil {
		l.broken = fmt.Errorf("wal: append: %w", err)
		return 0, l.broken
	}
	l.appended += int64(len(frame))
	lsn := l.appended
	l.reg.Counter("wal.appends").Inc()
	l.reg.Counter("wal.appended.bytes").Add(int64(len(frame)))
	if h := l.hooks.AfterAppend; h != nil {
		if err := h(lsn); err != nil {
			l.broken = err
			return 0, err
		}
	}
	return lsn, nil
}

// WaitDurable blocks until an fsync covers lsn, group-committing with any
// concurrent callers: the first waiter becomes the sync leader, sleeps the
// coalescing window, and fsyncs once for everyone who appended meanwhile.
func (l *Log) WaitDurable(lsn int64) error {
	for {
		l.syncMu.Lock()
		if l.synced >= lsn {
			l.syncMu.Unlock()
			return nil
		}
		syncing := l.syncing
		ch := l.syncCh
		l.syncMu.Unlock()

		// The broken check runs with syncMu released: brokenErr takes mu,
		// and Checkpoint holds mu while publishing the durable watermark
		// under syncMu, so a syncMu->mu edge here would close a lock-order
		// cycle. broken is sticky (set once, never cleared), so the check
		// does not need to be atomic with the watermark read above.
		if err := l.brokenErr(); err != nil {
			return err
		}

		if syncing {
			<-ch
			continue
		}

		l.syncMu.Lock()
		if l.synced >= lsn || l.syncing {
			// The world moved while broken was checked: a leader appeared
			// or finished. Re-evaluate from the top.
			l.syncMu.Unlock()
			continue
		}
		l.syncing = true
		l.syncMu.Unlock()

		if l.window > 0 {
			time.Sleep(l.window)
		}
		err := l.syncNow()

		l.syncMu.Lock()
		l.syncing = false
		close(l.syncCh)
		l.syncCh = make(chan struct{})
		l.syncMu.Unlock()
		if err != nil {
			return err
		}
	}
}

// syncNow fsyncs the file, advancing the durable watermark to the offset
// appended at the time of the call.
func (l *Log) syncNow() error {
	l.mu.Lock()
	target := l.appended
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		return err
	}
	if h := l.hooks.BeforeSync; h != nil {
		if err := h(); err != nil {
			l.broken = err
			l.mu.Unlock()
			return err
		}
	}
	//genalgvet:ignore lockorder the fsync must cover exactly the appended prefix; racing appends past the captured target would be fine, but a cheap mutex keeps the durable watermark reasoning simple
	err := l.f.Sync()
	if err != nil {
		l.broken = fmt.Errorf("wal: fsync: %w", err)
		err = l.broken
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	l.reg.Counter("wal.fsyncs").Inc()
	l.syncMu.Lock()
	if target > l.synced {
		l.synced = target
	}
	l.syncMu.Unlock()
	if h := l.hooks.AfterSync; h != nil {
		if herr := h(target); herr != nil {
			l.poison(herr)
			return herr
		}
	}
	return nil
}

func (l *Log) brokenErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// poison marks the log permanently failed (simulated crash or I/O error).
func (l *Log) poison(err error) {
	l.mu.Lock()
	if l.broken == nil {
		l.broken = err
	}
	l.mu.Unlock()
}

// Sync forces an immediate fsync of everything appended (used at clean
// shutdown; commits should use WaitDurable).
func (l *Log) Sync() error { return l.syncNow() }

// Size returns the appended length of the live log in bytes — the
// checkpoint-threshold input.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// SyncedLSN returns the highest offset covered by a successful fsync: the
// durable prefix a crash at this instant would preserve.
func (l *Log) SyncedLSN() int64 {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.synced
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close fsyncs and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.broken == nil {
		//genalgvet:ignore lockorder shutdown path: the final fsync serializes with any straggling append by design
		err = l.f.Sync()
	}
	//genalgvet:ignore lockorder shutdown path: closing under the mutex stops any concurrent append from racing the file handle
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Checkpoint writes a compacted replacement log (the frames produced by
// emit — schema DDL plus one insert per live row), fsyncs it, and
// atomically renames it over the live log. The caller must guarantee no
// concurrent AppendTxn (genalgd holds the engine's DML lock). On success
// the Log continues on the new file; on failure the old log remains
// authoritative.
func (l *Log) Checkpoint(emit func(appendTxn func(recs []Record) error) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	ckptPath := l.path + ".ckpt"
	start := time.Now()
	//genalgvet:ignore lockorder the checkpoint rewrite holds the append mutex by design: appends are excluded for the duration (callers hold the DML lock anyway)
	nf, err := os.OpenFile(ckptPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint create: %w", err)
	}
	// The replacement becomes the live log at the rename, so it must be
	// locked before then: a concurrent Open must never find it unlocked.
	if err := flock(nf); err != nil {
		nf.Close()          //genalgvet:ignore lockorder checkpoint rewrite holds the append mutex by design
		os.Remove(ckptPath) //genalgvet:ignore lockorder checkpoint rewrite holds the append mutex by design
		return fmt.Errorf("wal: checkpoint lock: %w", err)
	}
	var written int64
	var seq uint64
	appendTxn := func(recs []Record) error {
		seq++
		frame := encodeFrame(seq, recs)
		if _, err := nf.Write(frame); err != nil {
			return fmt.Errorf("wal: checkpoint write: %w", err)
		}
		written += int64(len(frame))
		return nil
	}
	if err := emit(appendTxn); err != nil {
		nf.Close()          //genalgvet:ignore lockorder checkpoint rewrite holds the append mutex by design (see OpenFile above)
		os.Remove(ckptPath) //genalgvet:ignore lockorder checkpoint rewrite holds the append mutex by design
		return err
	}
	//genalgvet:ignore lockorder checkpoint rewrite holds the append mutex by design
	if err := nf.Sync(); err != nil {
		nf.Close()          //genalgvet:ignore lockorder checkpoint rewrite holds the append mutex by design
		os.Remove(ckptPath) //genalgvet:ignore lockorder checkpoint rewrite holds the append mutex by design
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if h := l.hooks.BeforeCheckpointRename; h != nil {
		if err := h(); err != nil {
			nf.Close() //genalgvet:ignore lockorder checkpoint rewrite holds the append mutex by design
			l.broken = err
			return err
		}
	}
	//genalgvet:ignore lockorder the atomic rename is the checkpoint's commit point; it must complete before appends resume
	if err := os.Rename(ckptPath, l.path); err != nil {
		nf.Close()          //genalgvet:ignore lockorder checkpoint rewrite holds the append mutex by design
		os.Remove(ckptPath) //genalgvet:ignore lockorder checkpoint rewrite holds the append mutex by design
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	//genalgvet:ignore lockorder the rename's directory fsync is part of the checkpoint commit: it must land before appends resume on the new file
	syncDir(l.path)
	old := l.f
	l.f = nf
	l.appended = written
	l.seq = seq
	old.Close() //genalgvet:ignore lockorder the replaced log's handle must close before appends resume on the new file
	l.syncMu.Lock()
	l.synced = written
	l.syncMu.Unlock()
	l.reg.Counter("wal.checkpoints").Inc()
	l.reg.Histogram("wal.checkpoint.seconds").Observe(time.Since(start).Seconds())
	return nil
}

// syncDir best-effort fsyncs the directory containing path so the
// checkpoint rename itself is durable.
func syncDir(path string) {
	dir := "."
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			dir = path[:i]
			if dir == "" {
				dir = "/"
			}
			break
		}
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
