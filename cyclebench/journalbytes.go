package main

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// journalScan is what one pass over a journal yields: its size split by
// record kind and its cycle_map records.
type journalScan struct {
	// ByKind totals each kind's lines, newline included, with any
	// artifact path left out (see scanJournal).
	ByKind map[string]int64
	// Count is the number of records of each kind.
	Count map[string]int64
	// LevelMax is the largest single level record.
	LevelMax int64
	// Maps are the cycle_map records in journal order.
	Maps []mapRecord
}

// mapRecord is a journaled cycle_map record.
type mapRecord struct {
	ID        string `json:"id"`
	Cycle     int    `json:"cycle"`
	MapPath   string `json:"map_path"`
	MapDigest string `json:"map_digest"`
}

// scanJournal splits a journal's bytes by record kind and collects its
// cycle_map records. A cycle_map record carries the artifact's path,
// whose length depends on where the artifacts were written rather than
// on the job, so the path's encoded bytes are not counted: two
// identical jobs written to different directories count the same.
func scanJournal(data []byte) (journalScan, error) {
	js := journalScan{ByKind: map[string]int64{}, Count: map[string]int64{}}
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec struct {
			Kind string `json:"kind"`
			mapRecord
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return js, fmt.Errorf("journal line %d: %w", i+1, err)
		}
		n := int64(len(line)) + 1
		if rec.MapPath != "" {
			enc, err := json.Marshal(rec.MapPath)
			if err != nil {
				return js, fmt.Errorf("journal line %d: %w", i+1, err)
			}
			n -= int64(len(enc))
		}
		js.ByKind[rec.Kind] += n
		js.Count[rec.Kind]++
		switch rec.Kind {
		case "level":
			js.LevelMax = max(js.LevelMax, n)
		case "cycle_map":
			js.Maps = append(js.Maps, rec.mapRecord)
		}
	}
	return js, nil
}
