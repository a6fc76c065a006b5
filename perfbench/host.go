package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// hostBlock describes where a run happened: a number is comparable
// only with numbers from the same host block.
func hostBlock(root, serveBin, storeDir string) []string {
	return []string{
		fmt.Sprintf("host: cpus=%d gomaxprocs=%d server-gomaxprocs=%d %s/%s %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), serverProcs, runtime.GOOS, runtime.GOARCH, runtime.Version()),
		fmt.Sprintf("code: commit=%s serve-sha256=%s", commit(root), fileHash(serveBin)),
		fmt.Sprintf("store filesystem: %s", fsType(storeDir)),
	}
}

// commit is the checkout's git revision, when the checkout is a git
// repository at all.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none (not a git checkout)"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fileHash identifies the server build that was measured.
func fileHash(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// fsType names the filesystem holding dir: store latency on tmpfs and
// on a disk are different numbers.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs",
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x794c7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
