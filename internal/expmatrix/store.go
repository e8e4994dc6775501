package expmatrix

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ldcdft/internal/qio"
	"ldcdft/internal/serve"
)

// CellRecord is the durable record of one completed cell: the axis
// values and the job that ran it with its Results, or a computed cell's
// Observables. Records are written crash-safely (qio.AtomicFile), so a
// campaign killed mid-write never leaves a torn cell — on rerun, a
// present record means the cell is done and is skipped.
type CellRecord struct {
	Key         string             `json:"key"`
	Values      Cell               `json:"values"`
	JobID       string             `json:"job_id"`
	Results     *serve.Results     `json:"results"`
	Observables map[string]float64 `json:"observables,omitempty"`
	CompletedAt time.Time          `json:"completed_at,omitzero"`
}

// Store is the per-experiment result directory:
//
//	<root>/experiments/<name>/cells/<key>.json   one CellRecord per cell
//	<root>/experiments/<name>/report.json        last rendered Report
//	<root>/experiments/<name>/report.md          last rendered matrix
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) the store of experiment name
// under root.
func OpenStore(root, name string) (*Store, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return nil, fmt.Errorf("expmatrix: invalid experiment name %q", name)
	}
	s := &Store{dir: filepath.Join(root, "experiments", name)}
	if err := os.MkdirAll(filepath.Join(s.dir, "cells"), 0o755); err != nil {
		return nil, fmt.Errorf("expmatrix: open store: %w", err)
	}
	return s, nil
}

// Dir returns the experiment directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) cellPath(key string) string {
	return filepath.Join(s.dir, "cells", key+".json")
}

// GetCell loads the record of a completed cell; (nil, nil) when the
// cell has not completed.
func (s *Store) GetCell(key string) (*CellRecord, error) {
	var rec CellRecord
	err := qio.ReadJSONFile(s.cellPath(key), &rec)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return &rec, nil
}

// PutCell durably records a completed cell.
func (s *Store) PutCell(rec *CellRecord) error {
	return qio.WriteJSONFile(s.cellPath(rec.Key), rec)
}

// WriteReport persists the rendered report (JSON and markdown).
func (s *Store) WriteReport(rep *Report) error {
	if err := qio.WriteJSONFile(filepath.Join(s.dir, "report.json"), rep); err != nil {
		return err
	}
	_, err := qio.WriteFileAtomic(filepath.Join(s.dir, "report.md"), strings.NewReader(RenderMarkdown(rep)))
	return err
}
