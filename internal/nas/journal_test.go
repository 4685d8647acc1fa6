package nas

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"drainnas/internal/surrogate"
)

// syncCountingBuffer is a bytes.Buffer that counts Sync calls, standing in
// for an *os.File.
type syncCountingBuffer struct {
	bytes.Buffer
	syncs int
}

func (b *syncCountingBuffer) Sync() error {
	b.syncs++
	return nil
}

func journalFixture(t testing.TB, n int) []TrialResult {
	t.Helper()
	cfgs := PaperSpace().Enumerate(InputCombo{7, 16})[:n]
	eval := SurrogateEvaluator{Model: surrogate.Default()}
	return Experiment(cfgs, eval, ExperimentOptions{Workers: 1})
}

// writeJournal streams results into w through a JournalWriter, the way a
// sweep journals its trials.
func writeJournal(t testing.TB, w io.Writer, results []TrialResult) {
	t.Helper()
	jw := NewJournalWriter(w, JournalWriterOptions{})
	for _, r := range results {
		if err := jw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalWriterStreamsAndSyncs(t *testing.T) {
	results := journalFixture(t, 7)
	var buf syncCountingBuffer
	jw := NewJournalWriter(&buf, JournalWriterOptions{SyncEvery: 3})
	for i, r := range results {
		if err := jw.Append(r); err != nil {
			t.Fatal(err)
		}
		// Line-buffered: every appended trial is fully visible downstream
		// before the next append.
		back, err := ReadJournal(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("after %d appends: %v", i+1, err)
		}
		if len(back) != i+1 {
			t.Fatalf("after %d appends only %d entries visible", i+1, len(back))
		}
	}
	if buf.syncs != 2 { // appends 3 and 6
		t.Fatalf("syncs = %d, want 2 (cadence 3 over 7 appends)", buf.syncs)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.syncs != 3 {
		t.Fatalf("Close did not sync (syncs = %d)", buf.syncs)
	}
	if jw.Count() != 7 {
		t.Fatalf("Count = %d", jw.Count())
	}
	if err := jw.Append(results[0]); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

func TestJournalWriterConcurrentAppends(t *testing.T) {
	results := journalFixture(t, 24)
	var buf syncCountingBuffer
	jw := NewJournalWriter(&buf, JournalWriterOptions{SyncEvery: 5})
	var wg sync.WaitGroup
	for _, r := range results {
		wg.Add(1)
		go func(r TrialResult) {
			defer wg.Done()
			if err := jw.Append(r); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(results) {
		t.Fatalf("read back %d/%d entries", len(back), len(results))
	}
	// Interleaved writers must still produce whole lines: every entry
	// round-trips to a known config.
	want := map[string]bool{}
	for _, r := range results {
		want[r.Config.Key()] = true
	}
	for _, r := range back {
		if !want[r.Config.Key()] {
			t.Fatalf("journal line for unknown config %s", r.Config.Key())
		}
	}
}

// failingWriter errors after budget bytes — a tiny disk.
type failingWriter struct {
	budget int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, fmt.Errorf("disk full")
	}
	w.budget -= len(p)
	return len(p), nil
}

func TestJournalWriterStickyErrorSurfacesAtClose(t *testing.T) {
	results := journalFixture(t, 6)
	jw := NewJournalWriter(&failingWriter{budget: 150}, JournalWriterOptions{})
	var appendErr error
	for _, r := range results {
		if err := jw.Append(r); err != nil {
			appendErr = err
			break
		}
	}
	if appendErr == nil {
		t.Fatal("no append hit the full disk (raise fixture size)")
	}
	if err := jw.Close(); err == nil {
		t.Fatal("Close swallowed the write error — a truncated journal would be reported as written")
	}
	// Idempotent: the second Close reports the same sticky error.
	if err := jw.Close(); err == nil {
		t.Fatal("second Close lost the sticky error")
	}
}

func TestReadJournalRecoversTruncatedTail(t *testing.T) {
	results := journalFixture(t, 5)
	var buf bytes.Buffer
	writeJournal(t, &buf, results)
	full := buf.Bytes()
	lines := bytes.SplitAfter(full, []byte("\n"))
	// lines has a trailing empty element after the final newline.
	lastStart := len(full) - len(lines[len(lines)-2])

	// Chop the final record mid-line, as a crash mid-write would.
	for cut := lastStart + 1; cut < len(full)-1; cut += 40 {
		got, err := ReadJournal(bytes.NewReader(full[:cut]))
		var tail *JournalTailError
		if !errors.As(err, &tail) {
			t.Fatalf("cut at %d: err = %v, want *JournalTailError", cut, err)
		}
		if tail.Offset != int64(lastStart) {
			t.Fatalf("cut at %d: tail offset %d, want %d", cut, tail.Offset, lastStart)
		}
		if len(got) != len(results)-1 {
			t.Fatalf("cut at %d: recovered %d entries, want %d", cut, len(got), len(results)-1)
		}
		for i, r := range got {
			if r.Config != results[i].Config || r.Accuracy != results[i].Accuracy {
				t.Fatalf("cut at %d: entry %d corrupted", cut, i)
			}
		}
		// Truncating at the reported offset and appending the lost trial
		// yields a clean journal again — the repair -resume performs.
		repaired := append(append([]byte{}, full[:tail.Offset]...), full[lastStart:]...)
		back, rerr := ReadJournal(bytes.NewReader(repaired))
		if rerr != nil || len(back) != len(results) {
			t.Fatalf("cut at %d: repair failed: %v (%d entries)", cut, rerr, len(back))
		}
	}
}

func TestReadJournalAcceptsMissingFinalNewline(t *testing.T) {
	results := journalFixture(t, 3)
	var buf bytes.Buffer
	writeJournal(t, &buf, results)
	// A complete record whose terminating newline was lost still counts.
	data := bytes.TrimRight(buf.Bytes(), "\n")
	got, err := ReadJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("entries %d, want 3", len(got))
	}
}

func TestReadJournalSkipsBlankLines(t *testing.T) {
	results := journalFixture(t, 2)
	var buf bytes.Buffer
	buf.WriteString("\n")
	writeJournal(t, &buf, results[:1])
	buf.WriteString("\n\n")
	writeJournal(t, &buf, results[1:])
	got, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("entries %d, want 2", len(got))
	}
}

func TestReadJournalEmpty(t *testing.T) {
	got, err := ReadJournal(bytes.NewReader(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty journal: %v, %d entries", err, len(got))
	}
}

// FuzzReadJournal feeds the journal reader arbitrary bytes, seeded with the
// journals above: a clean one, one cut mid-record, one whose last newline
// was lost, one with blank lines, an empty one. It must never panic; a bad
// tail must be reported at an offset inside the input, before which the
// journal reads back the same entries cleanly (the repair -resume makes);
// and every entry it recovers must survive json.Marshal and a second read.
func FuzzReadJournal(f *testing.F) {
	var buf bytes.Buffer
	writeJournal(f, &buf, journalFixture(f, 3))
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-20])
	f.Add(bytes.TrimRight(full, "\n"))
	f.Add(append([]byte("\n"), bytes.ReplaceAll(full, []byte("\n"), []byte("\n\n"))...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadJournal(bytes.NewReader(data))
		var tail *JournalTailError
		if errors.As(err, &tail) {
			if tail.Offset < 0 || tail.Offset > int64(len(data)) {
				t.Fatalf("tail offset %d outside a %d-byte input", tail.Offset, len(data))
			}
			prefix, perr := ReadJournal(bytes.NewReader(data[:tail.Offset]))
			if perr != nil || !sameEntries(prefix, got) {
				t.Fatalf("input cut at the tail offset %d: %v, %d entries, want nil and %d", tail.Offset, perr, len(prefix), len(got))
			}
		} else if err != nil {
			t.Fatalf("error other than a bad tail: %v", err)
		}
		var again bytes.Buffer
		for _, r := range got {
			line, merr := json.Marshal(r)
			if merr != nil {
				t.Fatalf("recovered entry %+v does not marshal: %v", r, merr)
			}
			again.Write(append(line, '\n'))
		}
		back, err := ReadJournal(&again)
		if err != nil || !sameEntries(back, got) {
			t.Fatalf("recovered entries do not round-trip: %v, %d entries, want %d", err, len(back), len(got))
		}
	})
}

func sameEntries(a, b []TrialResult) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
