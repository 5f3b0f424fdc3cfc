package main

import (
	"os"
	"testing"
)

func TestVmHWMReadsOwnPeak(t *testing.T) {
	v, ok := vmHWM(os.Getpid())
	if !ok || v <= 0 {
		t.Fatalf("vmHWM(self) = %v, %v; want a positive peak", v, ok)
	}
	if _, ok := vmHWM(-1); ok {
		t.Error("vmHWM of a missing process reported a value")
	}
}
