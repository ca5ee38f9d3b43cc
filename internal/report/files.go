package report

import (
	"errors"
	"os"
)

// OpenSinks opens the named output files for writing (an empty name gives
// a nil file) and truncates them only once all are open, so that when one
// cannot be opened every existing file keeps its bytes; a file the call
// created is removed again. Only regular files are truncated: a device or
// pipe such as /dev/null cannot be, and needs not.
func OpenSinks(paths ...string) ([]*os.File, error) {
	files := make([]*os.File, len(paths))
	var created []string
	fail := func(err error) ([]*os.File, error) {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
		for _, p := range created {
			_ = os.Remove(p) // best effort: the open error is what the run reports
		}
		return nil, err
	}
	for i, p := range paths {
		if p == "" {
			continue
		}
		f, err := os.OpenFile(p, os.O_WRONLY, 0)
		if errors.Is(err, os.ErrNotExist) {
			if f, err = os.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666); err == nil {
				created = append(created, p)
			}
		}
		if err != nil {
			return fail(err)
		}
		files[i] = f
	}
	for _, f := range files {
		if f == nil {
			continue
		}
		info, err := f.Stat()
		if err == nil && info.Mode().IsRegular() {
			err = f.Truncate(0)
		}
		if err != nil {
			return fail(err)
		}
	}
	return files, nil
}
