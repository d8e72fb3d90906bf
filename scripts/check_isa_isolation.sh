#!/usr/bin/env bash
# ISA isolation of the SIMD kernel objects (DESIGN.md §6).
#
# kernels_avx2.cc and kernels_avx512.cc are the only TUs compiled with ISA
# flags, and both include the shared kernel body. Each object must export
# exactly its Get*Kernels() accessor: any other external symbol (e.g. a
# weak inline function) is code compiled for that ISA that the linker may
# pick for callers on a host without it.
#
# Usage: scripts/check_isa_isolation.sh [build-dir]   (default build)

set -euo pipefail

build_dir="${1:-build}"
status=0
for isa in Avx2 Avx512; do
  obj="$(find "${build_dir}" -name "kernels_${isa,,}.cc.o" -print -quit)"
  if [ -z "${obj}" ]; then
    echo "ERROR: kernels_${isa,,}.cc.o not found under ${build_dir}" >&2
    status=1
    continue
  fi
  exported="$(nm -C --defined-only --extern-only "${obj}" | cut -d' ' -f3-)"
  if [ "${exported}" != "splash::Get${isa}Kernels()" ]; then
    echo "ERROR: ${obj} must export only splash::Get${isa}Kernels();" \
         "it exports:" >&2
    echo "${exported}" >&2
    status=1
  else
    echo "ok: ${obj} exports only splash::Get${isa}Kernels()"
  fi
done
exit "${status}"
