//go:build !amd64 || purego

package main

// kernelPath names the GEMM/vector kernels internal/tensor builds with
// these build constraints.
const kernelPath = "purego"
