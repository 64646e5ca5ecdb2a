#!/usr/bin/env bash
# Compiles the program (src/main/scala) and the benchmark (perfbench/src)
# into the directory given as $1, with the Scala compiler and the jars of
# the Spark distribution whose jars directory is $2.
#
#   bash perfbench/build.sh .bench_build/classes "$SPARK_HOME/jars"
set -euo pipefail
out="$1"
jars="$2"
root="$(cd "$(dirname "$0")/.." && pwd)"
if [ ! -d "$root/src/main/scala" ]; then
  echo "build.sh: no program sources in $root/src/main/scala" >&2
  exit 1
fi
rm -rf "$out"
mkdir -p "$out"
find "$root/src/main/scala" "$root/perfbench/src" -name '*.scala' | sort > "$out/../sources.txt"
java -Xmx1g -Xss16m -cp "$jars/*" scala.tools.nsc.Main -deprecation \
  -classpath "$(ls "$jars"/*.jar | tr '\n' ':')" -d "$out" @"$out/../sources.txt"
