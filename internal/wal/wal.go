// Package wal implements the tiny append-only record log shared by the
// durable control-plane components (the clearinghouse journal and the
// PhishJobQ store).
//
// Each record is an independently gob-encoded blob framed by a varint
// length prefix. Independent encoding matters: a gob stream re-sends type
// definitions per *encoder*, so appending to an existing file with a fresh
// encoder after a restart would corrupt a single-decoder read of the
// concatenation. Framing each record lets any number of process
// incarnations append to the same file and still replay it.
//
// Replay tolerates a torn final record (a crash mid-append) by stopping at
// the first short or undecodable tail — everything before it is intact.
// WriteFile replaces a whole log at once, for a file that is rewritten
// rather than appended to (the PhishJobQ's compaction, a job checkpoint).
package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// maxRecord bounds a single record so a corrupt length prefix cannot make
// Replay attempt a multi-gigabyte allocation.
const maxRecord = 64 << 20

// Append frames and writes one gob-encoded record to w.
func Append(w io.Writer, rec any) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(rec); err != nil {
		return fmt.Errorf("wal: encode: %w", err)
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(body.Len()))
	if _, err := w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("wal: write header: %w", err)
	}
	if _, err := w.Write(body.Bytes()); err != nil {
		return fmt.Errorf("wal: write body: %w", err)
	}
	return nil
}

// WriteFile replaces the file at path with a log of recs. The records go to
// a temporary file in the same directory, which is synced to stable storage
// and closed before it is renamed over path, so a crash or a power cut at
// any point leaves either the old file or the whole new one.
func WriteFile(path string, recs ...any) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, rec := range recs {
		if err == nil {
			err = Append(tmp, rec)
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: write %s: %w", path, err)
	}
	return nil
}

// Replay reads records from r, decoding each into a fresh T and passing it
// to fn. A torn tail (truncated length prefix, short body, or a body that
// fails to decode at end-of-file) terminates replay silently: it is the
// expected residue of a crash mid-append. An error from fn aborts replay
// and is returned.
func Replay[T any](r io.Reader, fn func(*T) error) error {
	br := newByteReader(r)
	for {
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return nil // clean EOF or torn prefix — end of intact records
		}
		if size > maxRecord {
			return nil // corrupt tail
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil // torn body
		}
		rec := new(T)
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(rec); err != nil {
			return nil // torn or corrupt body
		}
		if err := fn(rec); err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
	}
}

// byteReader adapts any io.Reader for binary.ReadUvarint without the
// buffering (and read-ahead) of bufio, so ReadFull below sees every byte.
type byteReader struct {
	r   io.Reader
	one [1]byte
}

func newByteReader(r io.Reader) *byteReader { return &byteReader{r: r} }

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, io.EOF
		}
		return 0, err
	}
	return b.one[0], nil
}

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }
