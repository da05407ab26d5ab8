// Command bmcastlint is the repository's vet tool: it runs the
// internal/lint analyzer suite — the syntactic checks (walltime,
// seededrand, simdrift, mapiter) and the CFG-based dataflow checks
// (spanleak, framebalance, pooledrelease) — over every
// package, driven by the go command:
//
//	go build -o bin/bmcastlint ./cmd/bmcastlint
//	go vet -vettool=bin/bmcastlint ./...
//
// With BMCASTLINT_JSON=<path> in the environment, every finding is also
// appended to <path> as one JSON object per line (NDJSON); CI uploads
// the file as the lint artifact. The file is opened with O_APPEND and
// each package's findings are written in a single write, so the
// parallel per-package tool invocations the go command spawns never
// interleave mid-record.
//
// It speaks the same unit-checker protocol as
// golang.org/x/tools/go/analysis/unitchecker, re-implemented on the
// standard library because this build environment has no module proxy:
// for each package, the go command writes a JSON config describing the
// files, the import map, and the export-data file of every dependency,
// then invokes this tool with the config path as its argument. The tool
// type-checks from export data, runs the analyzers, prints findings to
// stderr, and writes the (empty — no analyzer exports facts) .vetx fact
// file go expects.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/lint"
)

// vetConfig mirrors the JSON the go command feeds a -vettool (see
// cmd/go/internal/work's buildVetConfig). Fields this tool ignores are
// kept so the decoder stays strict about nothing and future go versions
// can add fields freely.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func main() {
	args := os.Args[1:]
	// The go command interrogates the tool before using it: -V=full asks
	// for a content-addressed version (cache key), -flags for the flag
	// set it may forward. Mimic unitchecker's answers.
	if len(args) == 1 && args[0] == "-V=full" {
		fmt.Printf("bmcastlint version devel buildID=%s\n", selfHash())
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintf(os.Stderr,
			"bmcastlint: must be run by the go command as a vet tool:\n"+
				"\tgo vet -vettool=$(which bmcastlint) ./...\n")
		os.Exit(1)
	}
	if err := run(args[0]); err != nil {
		fmt.Fprintf(os.Stderr, "bmcastlint: %v\n", err)
		os.Exit(1)
	}
}

// selfHash hashes this executable so rebuilt tools invalidate go's vet
// result cache.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

func run(cfgPath string) error {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("parsing %s: %v", cfgPath, err)
	}

	// Dependencies are analyzed only for facts; this suite exports none,
	// so an empty fact file satisfies the protocol immediately. The same
	// shortcut applies to packages outside the module: the analyzers
	// would stay silent anyway.
	if cfg.VetxOnly || !lint.InModule(cfg.ImportPath) {
		return writeVetx(cfg)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeVetx(cfg)
			}
			return err
		}
		files = append(files, f)
	}

	pkg, info, err := typecheck(fset, files, cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx(cfg)
		}
		return fmt.Errorf("type-checking %s: %v", cfg.ImportPath, err)
	}

	findings, err := lint.Run(fset, files, pkg, info, lint.Analyzers)
	if err != nil {
		return err
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", f.Pos, f.Analyzer, f.Message)
	}
	if err := appendJSON(cfg.ImportPath, findings); err != nil {
		return err
	}
	if err := writeVetx(cfg); err != nil {
		return err
	}
	if len(findings) > 0 {
		os.Exit(2) // diagnostics found: fail the vet run
	}
	return nil
}

// typecheck loads the package from source with every dependency resolved
// through the export-data files the go command listed in cfg.PackageFile.
func typecheck(fset *token.FileSet, files []*ast.File, cfg vetConfig) (*types.Package, *types.Info, error) {
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "source"
	}
	base := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			if canonical, ok := cfg.ImportMap[importPath]; ok {
				importPath = canonical
			}
			return base.Import(importPath)
		}),
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor("gc", buildArch()),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func buildArch() string {
	if a := os.Getenv("GOARCH"); a != "" {
		return a
	}
	return runtime.GOARCH
}

// appendJSON appends one NDJSON record per finding to the file named by
// BMCASTLINT_JSON, for CI to upload as the lint artifact. Nothing is
// written (not even an empty file) when the variable is unset or the
// package is clean. The go command runs one tool process per package in
// parallel, so the records for a package are buffered and appended with
// a single write to an O_APPEND descriptor — POSIX makes such writes
// atomic with respect to each other, keeping records line-intact.
func appendJSON(pkg string, findings []lint.Finding) error {
	path := os.Getenv("BMCASTLINT_JSON")
	if path == "" || len(findings) == 0 {
		return nil
	}
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	for _, f := range findings {
		rec := struct {
			Package  string `json:"package"`
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		}{pkg, f.Analyzer, f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	out, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return err
	}
	if _, err := out.WriteString(buf.String()); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeVetx writes the fact file the go command expects every vet tool to
// produce. No bmcastlint analyzer exports facts, so it is always empty.
func writeVetx(cfg vetConfig) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	return os.WriteFile(cfg.VetxOutput, []byte{}, 0o666)
}
