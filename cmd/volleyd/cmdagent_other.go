//go:build !unix

package main

import "os/exec"

// killGroupOnCancel is the group kill of cmdagent_unix.go where there are no
// process groups: cancellation kills cmd alone, and cmd.WaitDelay bounds the
// wait for whatever it leaves behind.
func killGroupOnCancel(*exec.Cmd) {}
