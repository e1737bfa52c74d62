package graph

// The sequential implementations the public entry points take below
// kernelMinN, exported to the external tests so TestKernelAutoSelection
// can compare the auto-selected kernels against them above it.

func (g *Graph) BFSSequential(src int) []int64 { return g.bfsSequential(src) }

func (g *Graph) MultiSourceBFSSequential(srcs []int) ([]int64, []int) {
	return g.multiSourceBFSSequential(srcs)
}

func (g *Graph) DijkstraHeap(src int) []int64 { return g.dijkstraHeap(src) }
