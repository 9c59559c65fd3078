//go:build unix

package main

import (
	"os/exec"
	"syscall"
)

// killGroupOnCancel puts cmd in a process group of its own and has the
// cancellation of its context kill the group, not just cmd: cmd is a shell,
// and killing a shell leaves what it started running — holding the output
// pipe, and, for a source that hangs every time, accumulating.
func killGroupOnCancel(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
}
