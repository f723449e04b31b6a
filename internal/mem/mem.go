// Package mem holds the memory figures of EMERALDS: the kernel's quoted
// code size against the small-memory budget, and the accounting of the
// kernel's dynamic RAM against the on-chip budget.
//
// There is no virtual memory — the targets run everything out of
// physical on-chip RAM (§4: "Virtual memory is not a concern in our
// target applications").
package mem

// PaperKernelSize is the §3 measured code size on the 68040: "a rich
// set of OS services in just 13 kbytes of code". It is quoted, not
// derived: the simulator has no code to measure.
const PaperKernelSize = 13 * 1024

// KernelBudget is the §1 upper bound on the code size of a
// small-memory RTOS, derived from 32–128 KB on-chip memories.
const KernelBudget = 20 * 1024
