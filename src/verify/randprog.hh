/**
 * @file
 * Seeded random-program generator for differential verification.
 *
 * A richer cousin of the generator in tests/test_random_programs.cc:
 * beyond the ALU/memory/multiply mix it exercises the corners the
 * 2026 scoreboard and executor fixes live in — flag-setting
 * multiplies followed by dependent conditionals (MULS latency),
 * push/pop pairs (LDM/STM), long multiplies with distinct
 * destination registers, carry chains (CMP + ADC/SBC), byte/halfword
 * memory traffic, register-offset addressing, and short forward
 * conditional branches.
 *
 * Every program is well-formed by construction: it terminates (a
 * counted loop), never touches r12 (the FITS expansion scratch), and
 * confines memory traffic to a declared scratch buffer — so any
 * divergence between models is a simulator bug, not UB in the test
 * input. The seed fully determines the program; reproducing a failure
 * is `randomVerifyProgram(seed)`.
 */

#ifndef POWERFITS_VERIFY_RANDPROG_HH
#define POWERFITS_VERIFY_RANDPROG_HH

#include <cstdint>

#include "assembler/program.hh"

namespace pfits
{

/** Generate the deterministic verification program for @p seed. */
Program randomVerifyProgram(uint64_t seed);

} // namespace pfits

#endif // POWERFITS_VERIFY_RANDPROG_HH
