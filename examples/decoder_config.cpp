/**
 * @file
 * The "configure" stage made concrete: synthesize a benchmark's ISA,
 * serialize the decoder configuration (the artefact the paper downloads
 * into the processor's non-volatile state), reload it, and run the FITS
 * binary under the *reloaded* configuration. Also reports the size of
 * the configuration state — the hardware cost of decoder
 * programmability — and prints the run record as JSON (its field
 * list, common/fields.hh).
 *
 * Usage: decoder_config [benchmark-name] [config-file]
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "fits/fits_frontend.hh"
#include "fits/profile.hh"
#include "fits/serialize.hh"
#include "fits/synth.hh"
#include "fits/translate.hh"
#include "mibench/mibench.hh"
#include "obs/json_fields.hh"
#include "sim/machine.hh"

using namespace pfits;

int
main(int argc, char **argv)
{
    try {
        const char *name = argc > 1 ? argv[1] : "crc32";
        const char *path = argc > 2 ? argv[2] : "fits_config.txt";

        mibench::Workload w = mibench::findBench(name).build();
        ProfileInfo profile = profileProgram(w.program);
        FitsIsa isa = synthesize(profile, SynthParams{}, name);
        FitsProgram fits = translateProgram(w.program, isa, profile);

        // Serialize the decoder configuration to disk and reload it.
        std::string config = saveFitsIsa(isa);
        {
            std::ofstream out(path);
            out << config;
        }
        std::printf("wrote decoder configuration to %s (%zu bytes of "
                    "text, %llu bits of decoder state)\n",
                    path, config.size(),
                    static_cast<unsigned long long>(
                        decoderConfigBits(isa)));

        std::ifstream in(path);
        std::string loaded((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
        fits.isa = loadFitsIsa(loaded);
        std::printf("reloaded: %zu slots, kraft %llu/65536\n",
                    fits.isa.slots.size(),
                    static_cast<unsigned long long>(
                        fits.isa.kraftSum()));

        // Execute the binary under the reloaded configuration.
        FitsFrontEnd fe(std::move(fits));
        Machine machine(fe, CoreConfig{});
        RunResult rr = machine.run();
        std::printf("run result 0x%08x (%s)\n\n", rr.io.emitted.at(0),
                    rr.io.emitted.at(0) == w.expected
                        ? "matches the golden checksum"
                        : "MISMATCH");

        JsonWriter json(std::cout);
        writeJsonFields(json, rr);
        std::cout << "\n";
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
