package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/knockandtalk/knockandtalk/internal/store"
)

// The lease journal is the coordinator's crash-replayable record of
// every lease transition, in the store WAL's frame format
// (length-prefixed, CRC32C-checksummed, sequence-numbered records): a
// restarted coordinator replays it to resume mid-campaign instead of
// restarting the fleet from zero. Transitions are rare — per lease, not
// per visit — so every append is flushed and fsynced before the
// coordinator acts on it.

// journalMagic begins every lease journal; a file with a different
// header is not ours to truncate.
const journalMagic = "knockfleet1\n"

// journalName is the journal's file name inside the campaign OutDir.
const journalName = "fleet.journal"

// journalEntry is the JSON payload of one frame.
type journalEntry struct {
	Seq  uint64 `json:"seq"`
	Type string `json:"type"` // campaign | acquire | expire | complete

	// acquire / expire / complete:
	Lease  string `json:"lease,omitempty"`
	Worker string `json:"worker,omitempty"`

	// complete:
	Attempted  int     `json:"attempted,omitempty"`
	Successful int     `json:"successful,omitempty"`
	Failed     int     `json:"failed,omitempty"`
	Locals     int     `json:"locals,omitempty"`
	Retention  int     `json:"retention_errors,omitempty"`
	Duplicates int     `json:"duplicates,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms,omitempty"`
	UploadMS   float64 `json:"upload_ms,omitempty"`

	// campaign (the header record, always seq 1): the partition
	// parameters, pinned so a resumed coordinator refuses a directory
	// produced by a differently-shaped campaign — its lease IDs would
	// name different target ranges.
	Name         string   `json:"name,omitempty"`
	Scale        float64  `json:"scale,omitempty"`
	Seed         uint64   `json:"seed,omitempty"`
	Crawls       []string `json:"crawls,omitempty"`
	LeaseTargets int      `json:"lease_targets,omitempty"`
	RetainLogs   bool     `json:"retain_logs,omitempty"`
	NetProfile   string   `json:"net_profile,omitempty"`
}

// journal is the append side. Appends are serialized by the
// coordinator's lock; the journal adds no locking of its own.
type journal struct {
	f       *os.File
	nextSeq uint64
	err     error // sticky: durability broke, the campaign continues
}

// openJournal opens (or creates) the journal in dir, replaying every
// valid record into apply — torn tails are truncated, exactly the
// store WAL's recovery contract — and returns the journal positioned
// for appends plus the number of records replayed.
func openJournal(dir string, apply func(journalEntry)) (*journal, int, error) {
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: opening journal: %w", err)
	}
	j := &journal{f: f, nextSeq: 1}
	valid, records, tailErr := store.ReplayFrames(f, journalMagic, func(payload []byte) error {
		var e journalEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			return err
		}
		if e.Seq >= j.nextSeq {
			j.nextSeq = e.Seq + 1
		}
		apply(e)
		return nil
	})
	if tailErr != nil && !errors.Is(tailErr, store.ErrTornFrame) {
		f.Close()
		return nil, 0, fmt.Errorf("fleet: %s: %v", journalName, tailErr)
	}
	if valid == 0 {
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt([]byte(journalMagic), 0)
		}
		if err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("fleet: initializing journal: %w", err)
		}
		valid = int64(len(journalMagic))
	} else if tailErr != nil {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("fleet: truncating torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("fleet: seeking journal: %w", err)
	}
	return j, records, nil
}

// append journals one transition durably: the frame is written and
// fsynced before return, so a transition the coordinator acts on
// survives a crash. Errors are sticky — the in-memory lease state stays
// authoritative, but a resumed coordinator would see pre-error history.
func (j *journal) append(e journalEntry) error {
	if j.err != nil {
		return j.err
	}
	e.Seq = j.nextSeq
	payload, err := json.Marshal(e)
	if err != nil {
		j.err = fmt.Errorf("fleet: encoding journal entry: %w", err)
		return j.err
	}
	if _, err := store.AppendFrame(j.f, payload); err != nil {
		j.err = fmt.Errorf("fleet: appending journal entry: %w", err)
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("fleet: syncing journal: %w", err)
		return j.err
	}
	j.nextSeq++
	return nil
}

func (j *journal) close() error {
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	if err != nil && j.err == nil {
		j.err = fmt.Errorf("fleet: closing journal: %w", err)
	}
	return j.err
}
