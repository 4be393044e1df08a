package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// storeVersion is bumped whenever the manifest line format changes;
// manifests written by other versions are never resumed from.
const storeVersion = 1

// Header is the first line of a manifest. Label fingerprints the run
// configuration (seed, duration, scale flags); a resume attempt against
// a manifest with a different label starts fresh instead of mixing
// points from incompatible runs.
type Header struct {
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	Label   string `json:"label"`
}

// Record is one manifest line: the outcome of one job.
type Record struct {
	Experiment string          `json:"experiment"`
	Key        string          `json:"key"`
	Seed       int64           `json:"seed"`
	Status     string          `json:"status"` // StatusOK or StatusFailed
	ElapsedMS  float64         `json:"elapsed_ms"`
	Payload    json.RawMessage `json:"payload,omitempty"`
	Error      string          `json:"error,omitempty"`
}

// Record statuses.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// Store is an append-only JSON-lines result manifest. Every completed
// job appends one Record; on resume the store is replayed and completed
// points are served from their stored payloads instead of re-running.
// Appends are flushed line-atomically, so a run killed mid-flight loses
// at most the in-progress points; a truncated final line (crash during
// write) is skipped on replay. Store is safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	done map[string]json.RawMessage // completed-point payloads by resume key
	path string
}

func resumeKey(experiment, key string, seed int64) string {
	return experiment + "\x00" + key + "\x00" + strconv.FormatInt(seed, 10)
}

// Open opens (or creates) the manifest at path. When resume is true and
// the existing manifest's header matches label, its completed records
// are loaded for Lookup and new records are appended after them; in
// every other case the file is truncated and a fresh header written.
func Open(path, label string, resume bool) (*Store, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runner: creating manifest dir: %w", err)
		}
	}
	s := &Store{done: make(map[string]json.RawMessage), path: path}
	if resume {
		if ok, err := s.loadExisting(path, label); err != nil {
			return nil, err
		} else if ok {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("runner: opening manifest: %w", err)
			}
			s.f, s.w = f, bufio.NewWriter(f)
			return s, nil
		}
		// Header mismatch or unreadable manifest: fall through and
		// start fresh — resuming across incompatible runs would stitch
		// together rows from different configurations.
		s.done = make(map[string]json.RawMessage)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("runner: creating manifest: %w", err)
	}
	s.f, s.w = f, bufio.NewWriter(f)
	hdr, err := json.Marshal(Header{Version: storeVersion, Tool: "ibsim", Label: label})
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := s.w.Write(append(hdr, '\n')); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: writing manifest header: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: writing manifest header: %w", err)
	}
	return s, nil
}

// loadExisting replays the manifest at path, returning true when its
// header matches label and its completed records were loaded.
func (s *Store) loadExisting(path, label string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("runner: opening manifest: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		return false, nil // empty file
	}
	var hdr Header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil ||
		hdr.Version != storeVersion || hdr.Label != label {
		return false, nil
	}
	for sc.Scan() {
		var rec Record
		// Skip unparseable lines: a crash mid-append leaves at most one
		// truncated trailing line, which simply re-runs that point.
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		if rec.Status != StatusOK || len(rec.Payload) == 0 {
			continue
		}
		s.done[resumeKey(rec.Experiment, rec.Key, rec.Seed)] = rec.Payload
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("runner: reading manifest: %w", err)
	}
	return true, nil
}

// Lookup returns the stored payload of a completed point, if any.
func (s *Store) Lookup(experiment, key string, seed int64) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, ok := s.done[resumeKey(experiment, key, seed)]
	return raw, ok
}

// Completed returns how many completed points the store knows about.
func (s *Store) Completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.done)
}

// Path returns the manifest's file path.
func (s *Store) Path() string { return s.path }

// Append writes one record and flushes it. Successful records also
// become visible to Lookup, so later sweeps in the same process (e.g. a
// re-entered experiment) resume without re-reading the file.
func (s *Store) Append(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runner: encoding manifest record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("runner: appending manifest record: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("runner: flushing manifest: %w", err)
	}
	if rec.Status == StatusOK && len(rec.Payload) > 0 {
		s.done[resumeKey(rec.Experiment, rec.Key, rec.Seed)] = rec.Payload
	}
	return nil
}

// Close flushes and closes the manifest file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	ferr := s.w.Flush()
	cerr := s.f.Close()
	s.f = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}
