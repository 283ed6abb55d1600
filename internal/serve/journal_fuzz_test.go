package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// journalOf runs spec to done on a journaled manager and returns the
// journal bytes.
func journalOf(tb testing.TB, spec JobSpec) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "jobs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := NewManager(Options{Stream: tinyStream(), Journal: j})
	if err != nil {
		tb.Fatal(err)
	}
	m.Start()
	st, err := m.Submit(spec)
	if err != nil {
		tb.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		got, err := m.Get(st.ID)
		if err != nil {
			tb.Fatal(err)
		}
		if got.State == StateDone {
			break
		}
		if got.State.Terminal() || time.Now().After(deadline) {
			tb.Fatalf("job %s in state %s (%s), want done", st.ID, got.State, got.Error)
		}
	}
	m.Drain()
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// recordKinds lists a journal's record kinds in order.
func recordKinds(tb testing.TB, data []byte) []string {
	tb.Helper()
	var kinds []string
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			tb.Fatal(err)
		}
		kinds = append(kinds, rec.Kind)
	}
	return kinds
}

// TestRefineJobJournalRecords: a refine job journals its submit, one
// record per level and its terminal state — no cycle records.
func TestRefineJobJournalRecords(t *testing.T) {
	got := recordKinds(t, journalOf(t, tinySpec()))
	if want := []string{"submit", "level", "level", "terminal"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("record kinds %v, want %v", got, want)
	}
}

// FuzzReplayJournal feeds arbitrary bytes to the journal parser, seeded
// with a real refine journal, a real cycle journal and a torn-tail
// variant of the cycle journal. Replay must never panic, and an
// accepted input must replay to the same state every time.
func FuzzReplayJournal(f *testing.F) {
	refine := journalOf(f, tinySpec())
	cyc := journalOf(f, tinyCycleSpec())
	f.Add(refine)
	f.Add(cyc)
	f.Add(cyc[:len(cyc)-len(cyc)/7])
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := replayJournal(data)
		if err != nil {
			return
		}
		again, err := replayJournal(data)
		if err != nil {
			t.Fatalf("accepted input rejected on replay: %v", err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("replay not deterministic:\n%+v\nvs\n%+v", first, again)
		}
	})
}
