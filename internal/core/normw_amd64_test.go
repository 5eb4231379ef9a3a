//go:build amd64 && !race

package core

import (
	"bufio"
	"bytes"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// noRMWFuncs are the lockfree hot paths whose machine code must hold no
// locked instruction: the claim (discover, scanNeighborsLean), the
// work-stealing pop and its front publication (drainOwn, drainOwnLean),
// the steal, the block and exchange publications, and the fused MS-BFS
// expansion. Heartbeats are inlined into most of them, so beat is
// covered too. The centralized dispatch (BFS_CL/DL fetch and slot
// zeroing, BFS_EL's edge cursor) deliberately keeps sync/atomic stores;
// DESIGN.md explains why.
var noRMWFuncs = []string{
	"(*state).discover",
	"(*state).scanNeighborsLean",
	"(*state).flushBlock",
	"(*wsWorker).drainOwn",
	"(*wsWorker).drainOwnLean",
	"(*wsWorker).stealLockfree",
	"(*MSEngine).expand",
	"(*state).discoverRemote",
	"(*state).flushRemote",
	"(*state).drainRemote",
}

// TestNoLockedInstructions disassembles this package's test binary and
// fails on any XCHG or LOCK-prefixed instruction in noRMWFuncs. It is the
// instruction-level form of the paper's claim that the lockfree
// variants use no atomic read-modify-write: a sync/atomic Store* in
// one of these functions compiles to XCHG on amd64, an implicitly
// locked RMW, and the zero atomic_rmw counter would not see it.
func TestNoLockedInstructions(t *testing.T) {
	if testing.CoverMode() == "atomic" {
		t.Skip("atomic coverage counters insert LOCK XADD into every function")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool unavailable, cannot disassemble: %v", err)
	}
	// go test links its binaries without a symbol table, which objdump
	// needs, so disassemble an unstripped build of this same package
	// and test code (same toolchain, same GOAMD64) instead.
	exe := filepath.Join(t.TempDir(), "core.test")
	if out, err := exec.Command(goTool, "test", "-c", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go test -c: %v\n%s", err, out)
	}
	pkg := reflect.TypeOf(state{}).PkgPath()
	names := make([]string, len(noRMWFuncs))
	for i, f := range noRMWFuncs {
		names[i] = regexp.QuoteMeta(f)
	}
	sym := "^" + regexp.QuoteMeta(pkg) + `\.(` + strings.Join(names, "|") + ")$"
	out, err := exec.Command(goTool, "tool", "objdump", "-s", sym, exe).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool objdump: %v\n%s", err, out)
	}

	seen := make(map[string]int)
	var fn string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "TEXT "); ok {
			// "TEXT optibfs/internal/core.(*state).discover(SB) file.go"
			name, _, _ := strings.Cut(rest, "(SB)")
			fn = strings.TrimPrefix(name, pkg+".")
			seen[fn]++
			continue
		}
		// Instruction lines: "  file.go:123\t0xaddr\t\tbytes\t\tMNEMONIC args".
		fields := strings.Split(strings.TrimSpace(line), "\t")
		instr := strings.TrimSpace(fields[len(fields)-1])
		if strings.HasPrefix(instr, "XCHG") || strings.HasPrefix(instr, "LOCK") {
			t.Errorf("%s: locked instruction %q at %s", fn, instr, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, f := range noRMWFuncs {
		if seen[f] != 1 {
			t.Errorf("%s: %d symbols in the binary, want 1 (renamed or inlined? update noRMWFuncs)", f, seen[f])
		}
	}
}
