package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

type rec struct {
	Kind int
	Name string
	Vals []int64
}

func TestAppendReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := []rec{
		{Kind: 1, Name: "alpha", Vals: []int64{1, 2, 3}},
		{Kind: 2, Name: "beta"},
		{Kind: 3, Name: "gamma", Vals: []int64{-7}},
	}
	for i := range want {
		if err := Append(&buf, &want[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	var got []rec
	if err := Replay(bytes.NewReader(buf.Bytes()), func(r *rec) error {
		got = append(got, *r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Name != want[i].Name || len(got[i].Vals) != len(want[i].Vals) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// Two incarnations, one file: appends from separate calls (fresh encoders)
// must replay as one log. This is the reason records are framed rather
// than streamed through a single gob encoder.
func TestAppendAcrossIncarnations(t *testing.T) {
	var file bytes.Buffer
	if err := Append(&file, &rec{Kind: 1, Name: "first"}); err != nil {
		t.Fatal(err)
	}
	// Simulate a restart: a brand-new encoder appends to the same bytes.
	if err := Append(&file, &rec{Kind: 2, Name: "second"}); err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := Replay(bytes.NewReader(file.Bytes()), func(r *rec) error {
		names = append(names, r.Name)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "first" || names[1] != "second" {
		t.Fatalf("got %v", names)
	}
}

func TestReplayToleratesTornTail(t *testing.T) {
	var buf bytes.Buffer
	if err := Append(&buf, &rec{Kind: 1, Name: "whole"}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Len()
	if err := Append(&buf, &rec{Kind: 2, Name: "torn"}); err != nil {
		t.Fatal(err)
	}
	// Cut the second record mid-body at every possible length; replay must
	// always surface exactly the first record and no error.
	for cut := whole + 1; cut < buf.Len(); cut++ {
		var got []rec
		err := Replay(bytes.NewReader(buf.Bytes()[:cut]), func(r *rec) error {
			got = append(got, *r)
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != 1 || got[0].Name != "whole" {
			t.Fatalf("cut %d: got %+v", cut, got)
		}
	}
}

func TestReplayEmpty(t *testing.T) {
	calls := 0
	if err := Replay(bytes.NewReader(nil), func(r *rec) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("fn called %d times on empty log", calls)
	}
}

// WriteFile replaces a whole log: the file holds exactly the records of the
// last call, and no temporary file is left beside it.
func TestWriteFileReplacesTheLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")
	if err := WriteFile(path, &rec{Kind: 1, Name: "old"}, &rec{Kind: 2, Name: "older"}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, &rec{Kind: 1, Name: "new"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var names []string
	if err := Replay(f, func(r *rec) error {
		names = append(names, r.Name)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "new" {
		t.Fatalf("replayed %v, want [new]", names)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("%d files in the directory, want the log alone", len(ents))
	}
	// A log in a missing directory is an error, not a silent loss.
	if err := WriteFile(filepath.Join(dir, "missing", "job.ckpt"), &rec{}); err == nil {
		t.Fatal("writing into a missing directory succeeded")
	}
}
