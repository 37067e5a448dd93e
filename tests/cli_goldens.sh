#!/bin/sh
# Golden outputs of the `healers` CLI, run as a CTest (`cli_golden`).
#
# Runs every subcommand, every output format and the flag and command error
# paths below, in order, inside a fresh scratch directory (later cases read
# the files earlier ones wrote). Each case becomes one line: the invocation,
# its exit code, and the cksum (CRC and byte count) of its stdout, of the
# file it wrote with -o ("-" when it has no -o), and of its stderr. The
# lines must equal tests/fixtures/cli_goldens.txt. Every -o target is a bare
# file name inside that directory.
#
# Wall-clock numbers are not part of the contract. A stream that carries
# them (serve latency, the simulate wall line, fleet ingest's docs/sec) is
# checksummed after a sed script removes them; its field is marked with `~`.
#
# On a mismatch the script writes cli_goldens.actual to the working
# directory and prints the diff. Copy it over the fixture only when a change
# means to move an output, and list every moved line in CHANGES.md.
#
# Usage: tests/cli_goldens.sh <healers-binary> <fixture>
set -u

healers="${1:?usage: cli_goldens.sh <healers-binary> <fixture>}"
fixture="${2:?usage: cli_goldens.sh <healers-binary> <fixture>}"
actual="$PWD/cli_goldens.actual"
work="$PWD/cli_goldens.work"
rm -rf "$work" && mkdir "$work" && cd "$work" || exit 1

# The cksum of a file as "CRC BYTES".
sum() {
  set -- $(cksum <"$1")
  echo "$1 $2"
}

# golden STDOUT_SED STDERR_SED ARGS... runs `healers ARGS...` and prints its
# fixture line. A non-empty *_SED script strips wall-clock text from that
# stream before the checksum.
golden() {
  out_sed=$1 err_sed=$2
  shift 2
  out_file="" prev=""
  for arg in "$@"; do
    [ "$prev" = "-o" ] && out_file=$arg
    prev=$arg
  done
  # Only the scratch directory's own files are cleared before a run.
  case $out_file in
    "" | /* | */*) ;;
    *) rm -f "$out_file" ;;
  esac
  "$healers" "$@" >stdout.txt 2>stderr.txt
  code=$?
  out_mark="" err_mark="" out_sum="-"
  if [ -n "$out_sed" ]; then
    sed -e "$out_sed" stdout.txt >filtered.txt && mv filtered.txt stdout.txt
    out_mark="~"
  fi
  if [ -n "$err_sed" ]; then
    sed -e "$err_sed" stderr.txt >filtered.txt && mv filtered.txt stderr.txt
    err_mark="~"
  fi
  if [ -n "$out_file" ]; then
    out_sum="missing"
    [ -f "$out_file" ] && out_sum=$(sum "$out_file")
  fi
  echo "healers $* | exit $code | stdout$out_mark $(sum stdout.txt) | out $out_sum |" \
    "stderr$err_mark $(sum stderr.txt)"
}

serve_wall='/^wall latency us: /d'
simulate_wall='/^simulated .* wall (/d'
ingest_rate='s/ ([0-9]* docs\/sec)$//'

run_cases() {
  echo "# healers ARGS | exit code | stdout cksum | -o file cksum | stderr cksum"

  # Help and usage.
  golden "" "" help
  golden "" "" --help
  golden "" "" help --defaults
  golden "" ""
  golden "" "" bogus-command

  # Catalog listings and declarations.
  golden "" "" list-libs
  golden "" "" list-functions libsimm.so.1
  golden "" "" list-functions
  golden "" "" decls libsimm.so.1
  golden "" "" decls libsimio.so.1 -o decls.xml

  # derive: plain, repair, stats, the pruning and reset knobs, the spec
  # cache cold then warm.
  golden "" "" derive libsimm.so.1
  golden "" "" derive libsimc.so.1 -o campaign.xml
  golden "" "" derive libsimm.so.1 --seed 7 --variants 2 -o seeded.xml
  golden "" "" derive libsimc.so.1 --repair -o repair.xml
  golden "" "" derive libsimc.so.1 --stats --jobs 1 -o stats.xml
  golden "" "" derive libsimio.so.1 --reset fresh --no-prune --jobs 1 -o fresh.xml
  golden "" "" derive libsimio.so.1 --cache-file derive.hsc -o cold.xml
  golden "" "" derive libsimio.so.1 --cache-file derive.hsc -o warm.xml
  golden "" "" derive libsimm.so.1 --cache-file derive.hsc --repair -o cached_repair.xml
  golden "" "" derive libsimc.so.1 --debloat -o scoped.xml

  # report and every wrapper type.
  golden "" "" report campaign.xml
  golden "" "" report missing.xml
  golden "" "" gen-source libsimc.so.1 --type profiling
  golden "" "" gen-source libsimc.so.1 --type robustness --campaign campaign.xml -o robust.c
  golden "" "" gen-source libsimc.so.1 --type security -o security.c
  golden "" "" gen-source libsimc.so.1 --type testing --seed 11 -o testing.c
  golden "" "" gen-source libsimc.so.1 --type repair --campaign campaign.xml -o repair.c
  golden "" "" gen-source libsimc.so.1 --type robustness
  golden "" "" gen-source libsimc.so.1 --type repair
  golden "" "" gen-source libsimc.so.1 --type repair --campaign missing.xml
  golden "" "" gen-source libnope.so --type repair --campaign campaign.xml
  golden "" "" gen-source libsimc.so.1 --type bogus
  golden "" "" gen-source libsimc.so.1

  # inspect, debloat and dossier: every demo in every format.
  for demo in demo-heap demo-stack demo-drift; do
    golden "" "" inspect $demo
    golden "" "" inspect $demo --format xml -o inspect_$demo.xml
    golden "" "" inspect $demo --validate --format xml
    golden "" "" inspect $demo --validate
    golden "" "" debloat $demo
    golden "" "" debloat $demo --format xml -o debloat_$demo.xml
    golden "" "" debloat $demo --format binary -o debloat_$demo.bin
    golden "" "" dossier $demo
    golden "" "" dossier $demo --format xml -o dossier_$demo.xml
    golden "" "" dossier $demo --format binary -o dossier_$demo.bin
    golden "" "" dossier $demo --repair
    golden "" "" dossier $demo --repair --format xml -o repair_$demo.xml
  done
  golden "" "" debloat demo-heap --cache-file debloat.hsc -o debloat_cached.txt
  golden "" "" debloat demo-drift --cache-file debloat.hsc --format xml -o debloat_cached.xml
  golden "" "" derive libsimc.so.1 --debloat --cache-file debloat.hsc -o scoped_cached.xml
  golden "" "" inspect
  golden "" "" debloat
  golden "" "" dossier

  # demo attacks.
  golden "" "" demo attacks
  golden "" "" demo

  # fleet: simulate in every encoding, then report and ingest.
  golden "" "" fleet simulate --hosts 3 --docs 4 -o fleet.docs
  golden "" "" fleet simulate --hosts 2 --docs 3 --encoding xml -o fleet_xml.docs
  golden "" "" fleet simulate --hosts 2 --docs 3 --encoding binary --jobs 2 --seed 9 -o fleet_bin.docs
  golden "" "" fleet simulate --hosts 0 --docs 2 -o fleet_one.docs
  golden "" "" fleet report fleet.docs --shards 2 --jobs 2
  golden "" "" fleet report fleet_xml.docs
  golden "" "" fleet report fleet_bin.docs --shards 0 --jobs 1
  golden "$ingest_rate" "" fleet ingest fleet.docs
  golden "$ingest_rate" "" fleet ingest fleet_bin.docs --shards 1 --capacity 2
  golden "" "" fleet report missing.docs
  golden "" "" fleet report
  golden "" "" fleet bogus
  golden "" "" fleet

  # serve: repair census, spec cache cold then warm, debloat, clamped knobs.
  golden "" "$serve_wall" serve --clients 2 --requests 24 --jobs 1 --repair --stats -o serve.bin
  golden "" "$serve_wall" serve --clients 2 --requests 4 --jobs 1 --encoding xml --cache-file serve.hsc
  golden "" "$serve_wall" serve --clients 2 --requests 4 --jobs 1 --encoding xml --cache-file serve.hsc
  golden "" "$serve_wall" serve --clients 1 --requests 6 --jobs 1 --encoding binary --debloat --stats
  golden "" "$serve_wall" serve --clients 1 --requests 4 --jobs 1 --shards 0 --capacity 0 --seed 5

  # simulate: stats, traffic models, a set --capacity, debloat.
  golden "" "$simulate_wall" simulate --hosts 200 --virtual-seconds 10 --jobs 1 --stats
  golden "" "$simulate_wall" simulate --hosts 200 --virtual-seconds 10 --jobs 2 --shards 3 -o sim.txt
  golden "" "$simulate_wall" simulate --hosts 150 --virtual-seconds 10 --traffic burst --capacity 64 --stats
  golden "" "$simulate_wall" simulate --hosts 100 --virtual-seconds 10 --debloat --stats --seed 3
  golden "" "" simulate --hosts 0
  golden "" "" simulate --shards 0
  golden "" "" simulate --capacity 0
  golden "" "" simulate --virtual-seconds 0
  golden "" "" simulate --traffic nope

  # Error paths: unknown library, format, encoding, flag; missing values;
  # malformed numbers.
  golden "" "" list-functions libnope.so
  golden "" "" decls libnope.so
  golden "" "" derive libnope.so
  golden "" "" inspect demo-nope
  golden "" "" debloat demo-nope
  golden "" "" dossier demo-nope
  golden "" "" inspect demo-heap --format binary
  golden "" "" inspect demo-heap --format pdf
  golden "" "" debloat demo-heap --format pdf
  golden "" "" dossier demo-heap --format pdf
  golden "" "" dossier demo-drift --format pdf
  golden "" "" fleet simulate --encoding utf8 -o never.docs
  golden "" "" serve --encoding utf8
  golden "" "" serve --encoding mixed --bogus
  golden "" "" derive libsimm.so.1 --bogus
  golden "" "" derive libsimm.so.1 -x
  golden "" "" derive libsimm.so.1 -o
  golden "" "" derive libsimm.so.1 --type
  golden "" "" derive libsimm.so.1 --seed
  golden "" "" derive libsimm.so.1 --jobs
  golden "" "" derive libsimm.so.1 --capacity
  golden "" "" derive libsimm.so.1 --cache-file
  golden "" "" derive libsimm.so.1 --reset warm
  golden "" "" derive libsimm.so.1 --jobs 4x
  golden "" "" derive libsimm.so.1 --seed 18446744073709551616
  golden "" "" derive libsimm.so.1 --variants 3000000000
}

run_cases >"$actual"
if diff -u "$fixture" "$actual"; then
  rm -f "$actual"
  exit 0
fi
echo "cli_goldens: output differs from $fixture; see $actual" >&2
exit 1
