// Command asmrun assembles a program written in the suite's assembly
// dialect, runs it on the functional emulator, and reports the
// architectural result — a fast way to develop kernels before timing
// them with cmd/earlyrel.
//
// Usage:
//
//	asmrun [-dump] [-trace] [-max N] prog.s
//	echo 'li r1, 42
//	      halt' | asmrun -
//
// -dump prints the disassembled program, -trace the dynamic instruction
// stream, and the final integer/FP register state is always shown.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"earlyrelease/internal/asm"
	"earlyrelease/internal/emu"
	"earlyrelease/internal/isa"
	"earlyrelease/internal/program"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("asmrun: ")
	var (
		dump     = flag.Bool("dump", false, "print the disassembled program")
		doTrace  = flag.Bool("trace", false, "print every executed instruction")
		maxInsts = flag.Uint64("max", 10_000_000, "dynamic instruction budget")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: asmrun [-dump] [-trace] [-max N] prog.s  (use '-' for stdin)")
	}

	name := flag.Arg(0)
	var src []byte
	var err error
	if name == "-" {
		name = "stdin"
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(name)
	}
	if err != nil {
		log.Fatal(err)
	}

	p, err := asm.Assemble(name, string(src))
	if err != nil {
		log.Fatal(err)
	}
	if *dump {
		dumpProgram(p)
	}

	m := emu.New(p)
	if *doTrace {
		for !m.Halted {
			if m.ICount >= *maxInsts {
				log.Fatalf("instruction budget (%d) exhausted", *maxInsts)
			}
			pc := m.PC
			e, err := m.Step()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%8d  %#06x  %s\n", m.ICount, pc, p.Insts[e.Idx])
		}
	} else if err := m.RunQuiet(*maxInsts); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("halted after %d instructions\n", m.ICount)
	fmt.Println("integer registers (non-zero):")
	for r := 0; r < isa.NumLogical; r++ {
		if v := m.IntR[r]; v != 0 {
			fmt.Printf("  %-4s = %-20d (%#x)\n", isa.IntName(isa.Reg(r)), int64(v), v)
		}
	}
	fmt.Println("fp registers (non-zero):")
	for r := 0; r < isa.NumLogical; r++ {
		if v := m.FPR[r]; v != 0 {
			fmt.Printf("  %-4s = %g\n", isa.FPName(isa.Reg(r)), v)
		}
	}
	fmt.Printf("state checksum: %#016x\n", m.Checksum())
}

func dumpProgram(p *program.Program) {
	fmt.Printf("; program %q: %d instructions, %d data bytes\n", p.Name, len(p.Insts), len(p.Data))
	// Invert the label map for annotation.
	byAddr := map[uint64][]string{}
	for name, addr := range p.Labels {
		byAddr[addr] = append(byAddr[addr], name)
	}
	for i, in := range p.Insts {
		pc := program.IndexToPC(i)
		for _, l := range byAddr[pc] {
			fmt.Printf("%s:\n", l)
		}
		fmt.Printf("  %#06x  %s\n", pc, in)
	}
	fmt.Println()
}
