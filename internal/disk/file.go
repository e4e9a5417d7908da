package disk

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// WriteFile writes data to path in one sequential pass, recording one
// seek (the open positions the head) and one write in stats.
func WriteFile(stats *IOStats, path string, data []byte) error {
	stats.AddSeek()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("disk: write %s: %w", path, err)
	}
	stats.AddWrite(int64(len(data)))
	return nil
}

// ReadFile reads path fully in one sequential pass, recording one seek
// and one read in stats. It reads into buf's storage, which is grown
// only if the file does not fit, and returns a slice aliasing it: a
// caller that reads many files of similar size and copies what it needs
// out of each passes the same buffer every time; nil asks for a fresh
// one.
func ReadFile(stats *IOStats, path string, buf []byte) ([]byte, error) {
	stats.AddSeek()
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("disk: read %s: %w", path, err)
	}
	defer f.Close()
	buf = buf[:0]
	// One byte of slack lets the read that finds EOF happen without
	// growing the buffer first.
	if fi, err := f.Stat(); err == nil && int64(cap(buf)) <= fi.Size() {
		buf = make([]byte, 0, fi.Size()+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("disk: read %s: %w", path, err)
		}
	}
	stats.AddRead(int64(len(buf)))
	return buf, nil
}

// Remove deletes path, ignoring already-missing files.
func Remove(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("disk: remove %s: %w", path, err)
	}
	return nil
}

// recordBufSize is the size of the sequential buffer a record reader
// streams through, and the most a record writer buffers.
const recordBufSize = 1 << 16

// RecordWriter appends length-prefixed records to a file through a
// buffered sequential writer. It is the spill format of the tuple hash
// table: each record is an opaque byte payload.
//
// The write buffer is sized by the first record appended — that record
// and its header, at least 4 KiB, at most 64 KiB — so header and
// payload of equal-sized records leave in one write: a tuple table
// keeps a writer open per shard for a whole build, and a 64 KiB buffer
// each, for files that receive a few 8 KiB records, was most of its
// memory.
type RecordWriter struct {
	f     *os.File
	w     *bufio.Writer // nil until the first Append
	stats *IOStats
	n     int64
}

// CreateRecordFile creates (or truncates) a record file at path.
func CreateRecordFile(stats *IOStats, path string) (*RecordWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("disk: create record file %s: %w", path, err)
	}
	stats.AddSeek()
	return &RecordWriter{f: f, stats: stats}, nil
}

// Append writes one record.
func (rw *RecordWriter) Append(rec []byte) error {
	if rw.w == nil {
		rw.w = bufio.NewWriterSize(rw.f, min(max(4+len(rec), 4096), recordBufSize))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(rec)))
	if _, err := rw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("disk: append record header: %w", err)
	}
	if _, err := rw.w.Write(rec); err != nil {
		return fmt.Errorf("disk: append record payload: %w", err)
	}
	rw.stats.AddWrite(int64(4 + len(rec)))
	rw.n++
	return nil
}

// Count reports the number of records appended so far.
func (rw *RecordWriter) Count() int64 { return rw.n }

// Close flushes and closes the file.
func (rw *RecordWriter) Close() error {
	if rw.w != nil {
		if err := rw.w.Flush(); err != nil {
			rw.f.Close()
			return fmt.Errorf("disk: flush record file: %w", err)
		}
	}
	if err := rw.f.Close(); err != nil {
		return fmt.Errorf("disk: close record file: %w", err)
	}
	return nil
}

// ReadBuffers opens record files for reading and recycles what their
// readers stream through — a 64 KiB buffer and the record handed out —
// so a tuple table that reads back hundreds of spill files, one at a
// time, zeroes that memory once instead of once per file. It belongs to
// whoever opens the files and is dropped with it. The zero value is
// ready to use.
type ReadBuffers struct {
	pool sync.Pool // *readBuf
}

// readBuf is what a RecordReader borrows: the stream buffer and the
// record it hands out.
type readBuf struct {
	r   *bufio.Reader
	rec []byte
}

// RecordReader streams records back from a file written by RecordWriter.
type RecordReader struct {
	f     *os.File
	buf   *readBuf
	bufs  *ReadBuffers
	stats *IOStats
}

// Open opens a record file for sequential reading.
func (b *ReadBuffers) Open(stats *IOStats, path string) (*RecordReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("disk: open record file %s: %w", path, err)
	}
	stats.AddSeek()
	buf, _ := b.pool.Get().(*readBuf)
	if buf == nil {
		buf = &readBuf{r: bufio.NewReaderSize(f, recordBufSize)}
	} else {
		buf.r.Reset(f)
	}
	return &RecordReader{f: f, buf: buf, bufs: b, stats: stats}, nil
}

// Next returns the next record, or io.EOF after the last one. The
// returned slice is the reader's own and is overwritten by the next
// call; it must not be used after Close.
func (rr *RecordReader) Next() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(rr.buf.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("disk: read record header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if cap(rr.buf.rec) < n {
		rr.buf.rec = make([]byte, n)
	}
	rec := rr.buf.rec[:n]
	if _, err := io.ReadFull(rr.buf.r, rec); err != nil {
		return nil, fmt.Errorf("disk: read record payload (%d bytes): %w", n, err)
	}
	rr.stats.AddRead(int64(4 + n))
	return rec, nil
}

// Close closes the underlying file and returns the buffers to their
// pool. Closing twice is a no-op.
func (rr *RecordReader) Close() error {
	if rr.buf == nil {
		return nil
	}
	rr.buf.r.Reset(nil) // a pooled buffer must not pin the file
	rr.bufs.pool.Put(rr.buf)
	rr.buf = nil
	if err := rr.f.Close(); err != nil {
		return fmt.Errorf("disk: close record reader: %w", err)
	}
	return nil
}
