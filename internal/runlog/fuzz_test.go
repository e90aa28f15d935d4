package runlog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frame returns body framed as one on-disk record with the given
// length prefix and the body's true checksum.
func frame(n uint32, body []byte) []byte {
	buf := make([]byte, recordHeaderSize, recordHeaderSize+len(body))
	binary.LittleEndian.PutUint32(buf[0:4], n)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(body))
	return append(buf, body...)
}

// twoRecordJournal returns the bytes of a journal holding two records
// written through Append, and the offset where the second one starts.
func twoRecordJournal(f *testing.F) ([]byte, int) {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.journal")
	j, _, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Append("phase-done", payload{Phase: 0, Name: "phase-0"}); err != nil {
		f.Fatal(err)
	}
	second := int(j.size)
	if err := j.Append("run-done", nil); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data, second
}

// FuzzOpenReplay feeds arbitrary bytes to Open as a journal file. Open
// must not panic and must not fail: every error it can return comes
// from the file system, and a temp file never produces one. Replay may
// only truncate, so the file left behind is a prefix of the input.
// Re-opening is idempotent (same records, same size), and a record
// appended after replay comes back after the replayed ones.
func FuzzOpenReplay(f *testing.F) {
	valid, second := twoRecordJournal(f)
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	badCRC := bytes.Clone(valid)
	badCRC[second+4] ^= 0xff
	f.Add(badCRC)
	f.Add(append(bytes.Clone(valid), frame(0, nil)...))
	f.Add(append(bytes.Clone(valid), frame(MaxRecordSize+1, []byte(`{}`))...))
	notJSON := []byte("not json")
	f.Add(append(bytes.Clone(valid), frame(uint32(len(notJSON)), notJSON)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "run.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := Open(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		size := j.size
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		left, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(left)) != size || !bytes.Equal(left, data[:len(left)]) {
			t.Fatalf("replay left %d bytes (validated %d) that are not a prefix of the %d-byte input",
				len(left), size, len(data))
		}

		j, again, err := Open(path)
		if err != nil {
			t.Fatalf("re-open: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-open replayed %d records, first open %d", len(again), len(recs))
		}
		if j.size != size {
			t.Fatalf("re-open validated %d bytes, first open %d", j.size, size)
		}

		want := payload{Phase: len(recs), Name: "appended"}
		if err := j.Append("phase-done", want); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, after, err := Open(path)
		if err != nil {
			t.Fatalf("open after append: %v", err)
		}
		defer j.Close()
		if len(after) != len(recs)+1 || (len(recs) > 0 && !reflect.DeepEqual(after[:len(recs)], recs)) {
			t.Fatalf("after append replayed %d records, want the %d earlier ones plus one", len(after), len(recs))
		}
		var got payload
		if last := after[len(recs)]; last.Type != "phase-done" || last.Decode(&got) != nil || got != want {
			t.Fatalf("appended record replayed as %+v", last)
		}
	})
}
