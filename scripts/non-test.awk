# Prints the lines of the Rust files it reads that are not test code: the
# one rule scripts/loc.sh and scripts/panic-budget.sh count by.
#
#   awk -f scripts/non-test.awk <file.rs>...
#
# A `#[cfg(test)]` at the start of a line takes the item under it out: the
# attribute lines that follow, then the item up to the `;` that ends it
# when no brace comes first (`mod tests;`), or else up to the line where its
# braces balance (`mod tests { ... }`, an `impl` or a `struct` in the middle
# of a file). Everything after the item counts again. Braces are counted as
# characters, so a test item with an unbalanced brace in a string or a
# character literal skips too much or too little.
FNR == 1 { skipping = 0 }
skipping {
    opened += gsub(/\{/, "{")
    depth += gsub(/\{/, "{") - gsub(/\}/, "}")
    if (opened ? depth <= 0 : /;[[:space:]]*$/) skipping = 0
    next
}
/^#\[cfg\(test\)\]/ { skipping = 1; opened = 0; depth = 0; next }
{ print }
