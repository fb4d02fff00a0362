#!/usr/bin/env bash
# Code lines per crate: `src/**/*.rs`, skipping blank lines, `//` comment
# lines and every `#[cfg(test)]` item: brace-matched, or up to the `;` or
# `,` that ends it (a field, a struct-literal entry), read outside
# parentheses and brackets so a multi-line attribute does not end it.
# Run at two commits and diff the output to see what a change added or
# deleted.
set -euo pipefail; cd "$(dirname "$0")/.."
count() {
    find "$1" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { skip = 0 }
        /^[[:space:]]*(\/\/.*)?$/ { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; paren = 0; opened = 0; next }
        skip { depth += gsub(/\{/, "{") - gsub(/\}/, "}"); if (depth > 0) opened = 1
               paren += gsub(/[([]/, "&") - gsub(/[])]/, "&")
               if ((opened && depth <= 0) || (!opened && !paren && /[;,][[:space:]]*$/)) skip = 0
               next }
        { n++ } END { print n + 0 }'
}
total=0
for dir in crates/*/src src; do
    name=$(awk -F'"' '/^name *=/ { print $2; exit }' "$dir/../Cargo.toml")
    n=$(count "$dir"); total=$((total + n)); printf '%-18s %6d\n' "$name" "$n"
done
printf '%-18s %6d\n' total "$total"
