package checker

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
)

// listPackage is the subset of `go list -json` output ExportData needs.
type listPackage struct {
	ImportPath string
	Export     string
	Error      *struct{ Err string }
}

// ExportData resolves export-data files for the given import paths and
// all their dependencies via one `go list -export -deps` run (so it must
// execute inside the module). The analysistest harness uses it to
// typecheck fixture packages against the real packages they import.
func ExportData(paths ...string) (map[string]string, error) {
	pkgs, err := goList(paths)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

func goList(patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Export,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}
