package recoverylog

import (
	"os"
	"path/filepath"
	"testing"
)

// validSegments builds a well-formed two-segment log (entries 1..3 and
// 4..5) and returns both segment files' bytes for seeding and for the
// shape-2 continuation below.
func validSegments(t interface{ Fatal(...any) }) (first, second []byte) {
	dir, err := os.MkdirTemp("", "rlseed")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	l, err := Open(dir, Options{SegmentEntries: 3, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Append(updateEvent(i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) != 2 {
		t.Fatal("expected two segments")
	}
	first, err = os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	second, err = os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	return first, second
}

// FuzzRecoveryLogReload feeds arbitrary bytes to the segment reloader in
// both positions a crash can leave them:
//
//  1. as the final segment — a torn tail there must heal (truncate to the
//     good prefix) or error, never panic, and the healed log must accept
//     appends and reload cleanly a second time;
//  2. as a non-final segment (a valid segment follows) — corruption there
//     must be reported as an error, never repaired by silently dropping
//     committed entries.
func FuzzRecoveryLogReload(f *testing.F) {
	valid, tail := validSegments(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                       // torn tail
	f.Add(valid[:7])                                  // torn header
	f.Add([]byte{})                                   // empty segment file
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length prefix
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x5a
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Shape 1: fuzz bytes are the only (final) segment.
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{FsyncEvery: 1}) // must not panic
		if err == nil {
			head := l.Head()
			l.Append(updateEvent(1))
			if got := l.Head(); got != head+1 {
				t.Fatalf("append after heal: head %d -> %d", head, got)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("close after heal: %v", err)
			}
			if l2, err := Open(dir, Options{}); err != nil {
				t.Fatalf("healed log does not reload: %v", err)
			} else {
				if l2.Head() != head+1 {
					t.Fatalf("reload after heal: head %d, want %d", l2.Head(), head+1)
				}
				l2.Close()
			}
		}

		// Shape 2: fuzz bytes followed by a valid segment. Whatever the
		// loader decides (error or success), it must not panic, and it must
		// never succeed by dropping the valid later segment while keeping a
		// contiguity gap.
		dir2 := t.TempDir()
		if err := os.WriteFile(segPath(dir2, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segPath(dir2, 4), tail, 0o644); err != nil {
			t.Fatal(err)
		}
		if l2, err := Open(dir2, Options{}); err == nil {
			// Load succeeded: the first segment must have decoded to exactly
			// entries 1..3 (anything shorter is a mid-log hole the loader
			// must reject) and the valid continuation 4..5 must be intact.
			if l2.Head() != 5 || l2.Len() != 5 {
				t.Fatalf("non-final segment healed silently: head=%d len=%d", l2.Head(), l2.Len())
			}
			l2.Close()
		}
	})
}
