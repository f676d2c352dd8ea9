package core

// The one-shot restore calls the tests are written against: each opens
// the archive (Open), makes one Reader call and collects the answer in
// memory. They keep the names and signatures of the entry points Open
// replaced, so the differentials and pinned stats read as they were
// written.

import (
	"bytes"
	"io"

	"microlonys/internal/archindex"
	"microlonys/media"
)

func Restore(m *media.Medium, bootstrapText string, mode Mode) ([]byte, *RestoreStats, error) {
	return RestoreWithOptions(m, bootstrapText, RestoreOptions{Mode: mode})
}

func RestoreWithOptions(m *media.Medium, bootstrapText string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	return RestoreVolume(media.VolumeOf(m), bootstrapText, ro)
}

func RestoreVolume(v *media.Volume, bootstrapText string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	return collect(v, bootstrapText, ro, (*Reader).Restore)
}

func RestoreToWriter(w io.Writer, v *media.Volume, bootstrapText string, ro RestoreOptions) (*RestoreStats, error) {
	r, err := Open(v, bootstrapText, ro)
	if err != nil {
		return nil, err
	}
	return r.Restore(w)
}

func RestoreRange(v *media.Volume, bootstrapText string, off, length int, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	return collect(v, bootstrapText, ro, func(r *Reader, w io.Writer) (*RestoreStats, error) {
		return r.Range(w, off, length)
	})
}

func RestoreSection(v *media.Volume, bootstrapText, name string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	return collect(v, bootstrapText, ro, func(r *Reader, w io.Writer) (*RestoreStats, error) {
		return r.Section(w, name)
	})
}

func RestoreTable(v *media.Volume, bootstrapText, table string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	return RestoreSection(v, bootstrapText, table, ro)
}

func ListIndex(v *media.Volume, bootstrapText string, ro RestoreOptions) (*archindex.Index, *RestoreStats, error) {
	r, err := Open(v, bootstrapText, ro)
	if err != nil {
		return nil, nil, err
	}
	return r.Index()
}

func Salvage(sheets []*media.Medium, opts SalvageOptions) ([]byte, *SalvageReport, error) {
	var buf bytes.Buffer
	rep, err := SalvageTo(&buf, sheets, opts)
	if err != nil {
		return nil, rep, err
	}
	return buf.Bytes(), rep, nil
}

// collect opens v and runs one Reader call into a buffer.
func collect(v *media.Volume, bootstrapText string, ro RestoreOptions, call func(*Reader, io.Writer) (*RestoreStats, error)) ([]byte, *RestoreStats, error) {
	r, err := Open(v, bootstrapText, ro)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	st, err := call(r, &buf)
	if err != nil {
		return nil, st, err
	}
	return buf.Bytes(), st, nil
}
