package nas

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// The trial journal is a JSON-lines file (one TrialResult per line, NNI
// journal style). It is the durability backbone of a long sweep: trials are
// appended as they complete, so an interrupted run restarts from whatever
// reached the file, and a crash mid-write costs at most the final partial
// line — which ReadJournal tolerates.

// TrialSink receives completed trials as they finish. Implementations must
// be safe for concurrent use: an experiment appends from every worker
// goroutine.
type TrialSink interface {
	Append(TrialResult) error
}

// JournalWriterOptions configures a JournalWriter.
type JournalWriterOptions struct {
	// SyncEvery calls Sync on the underlying writer (when it has one, e.g.
	// an *os.File) after every Nth appended trial, bounding how much
	// completed work a machine crash can lose. 0 disables periodic sync;
	// Close always syncs.
	SyncEvery int
}

// syncer is the optional Sync capability of the underlying writer.
type syncer interface{ Sync() error }

// JournalWriter streams TrialResults to a writer as they complete:
// mutex-serialized, line-buffered (each trial reaches the OS as one whole
// line before Append returns), with fsync on a configurable cadence. Errors
// are sticky: once a write fails every later Append and the final Close
// report it, so a full disk cannot masquerade as a clean journal.
type JournalWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	under  io.Writer
	opts   JournalWriterOptions
	count  int
	err    error
	closed bool
}

// NewJournalWriter wraps w for streaming trial appends. The caller keeps
// ownership of w unless it is an io.Closer, in which case Close closes it.
func NewJournalWriter(w io.Writer, opts JournalWriterOptions) *JournalWriter {
	return &JournalWriter{bw: bufio.NewWriter(w), under: w, opts: opts}
}

// Append journals one completed trial. The line is flushed to the OS before
// Append returns, and synced to disk every SyncEvery appends.
func (jw *JournalWriter) Append(r TrialResult) error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.err != nil {
		return jw.err
	}
	if jw.closed {
		jw.err = fmt.Errorf("nas: append to closed journal")
		return jw.err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return jw.fail(fmt.Errorf("nas: encoding journal line: %w", err))
	}
	line = append(line, '\n')
	if _, err := jw.bw.Write(line); err != nil {
		return jw.fail(fmt.Errorf("nas: writing journal: %w", err))
	}
	if err := jw.bw.Flush(); err != nil {
		return jw.fail(fmt.Errorf("nas: flushing journal: %w", err))
	}
	jw.count++
	if jw.opts.SyncEvery > 0 && jw.count%jw.opts.SyncEvery == 0 {
		if err := jw.sync(); err != nil {
			return jw.fail(err)
		}
	}
	return nil
}

// Count returns how many trials have been appended successfully.
func (jw *JournalWriter) Count() int {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.count
}

// Flush pushes buffered bytes to the underlying writer and syncs it.
func (jw *JournalWriter) Flush() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.err != nil {
		return jw.err
	}
	if err := jw.bw.Flush(); err != nil {
		return jw.fail(fmt.Errorf("nas: flushing journal: %w", err))
	}
	if err := jw.sync(); err != nil {
		return jw.fail(err)
	}
	return nil
}

// Close flushes, syncs, and — when the underlying writer is an io.Closer —
// closes it. It reports the first error the writer ever hit, so callers
// must check it: ignoring Close hides the ENOSPC that truncated the
// journal. Close is idempotent.
func (jw *JournalWriter) Close() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.closed {
		return jw.err
	}
	jw.closed = true
	if err := jw.bw.Flush(); err != nil && jw.err == nil {
		jw.err = fmt.Errorf("nas: flushing journal: %w", err)
	}
	if err := jw.sync(); err != nil && jw.err == nil {
		jw.err = err
	}
	if c, ok := jw.under.(io.Closer); ok {
		if err := c.Close(); err != nil && jw.err == nil {
			jw.err = fmt.Errorf("nas: closing journal: %w", err)
		}
	}
	return jw.err
}

// sync calls Sync on the underlying writer when it supports it. Callers
// hold jw.mu.
func (jw *JournalWriter) sync() error {
	s, ok := jw.under.(syncer)
	if !ok {
		return nil
	}
	if err := s.Sync(); err != nil {
		return fmt.Errorf("nas: syncing journal: %w", err)
	}
	return nil
}

// fail records the first error and returns it. Callers hold jw.mu.
func (jw *JournalWriter) fail(err error) error {
	if jw.err == nil {
		jw.err = err
	}
	return jw.err
}

// JournalTailError reports a journal whose tail could not be parsed — the
// expected aftermath of a crash mid-append. Offset is the byte offset where
// the bad tail starts; truncating the file there yields a clean journal
// that can be appended to again. Every entry before Offset was recovered.
type JournalTailError struct {
	Offset int64 // byte offset of the first unparseable line
	Line   int   // 1-based line number of that line
	Err    error // the JSON error that rejected it
}

// Error describes the bad tail.
func (e *JournalTailError) Error() string {
	return fmt.Sprintf("nas: journal tail unreadable at byte %d (line %d): %v", e.Offset, e.Line, e.Err)
}

// Unwrap exposes the underlying JSON error.
func (e *JournalTailError) Unwrap() error { return e.Err }

// ReadJournal parses a JSON-lines journal back into trial results. It is
// crash-tolerant: a journal whose final line was cut short mid-record (or
// is otherwise unparseable) yields every complete entry plus a
// *JournalTailError carrying the byte offset of the bad tail — callers
// resume from the recovered entries instead of losing the whole sweep.
// Blank lines are skipped. A clean journal returns a nil error.
func ReadJournal(r io.Reader) ([]TrialResult, error) {
	br := bufio.NewReader(r)
	var out []TrialResult
	var offset int64
	line := 0
	for {
		raw, err := br.ReadBytes('\n')
		line++
		complete := err == nil
		if err != nil && err != io.EOF {
			return out, fmt.Errorf("nas: reading journal: %w", err)
		}
		trimmed := bytes.TrimSpace(raw)
		if len(trimmed) > 0 {
			var t TrialResult
			if jerr := json.Unmarshal(trimmed, &t); jerr != nil {
				return out, &JournalTailError{Offset: offset, Line: line, Err: jerr}
			}
			// A final line without its newline that still parses is a
			// complete record whose terminator was lost; keep it.
			out = append(out, t)
		}
		offset += int64(len(raw))
		if !complete {
			return out, nil
		}
	}
}
