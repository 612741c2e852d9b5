//! Stdout output for the experiments binary: fixed-width tables, and the
//! [`outln!`](crate::outln)/[`out!`](crate::out) macros every report line
//! goes through.

use std::fmt;
use std::io::{self, Write};

/// Writes `args` to stdout. A closed pipe (`experiments | head -n 1`)
/// ends the process with status 0: the reader has taken all it wants.
/// Any other write error exits 1 with a diagnostic.
pub fn emit(args: fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` through [`emit`]: a closed stdout pipe is a clean exit.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::table::emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::table::emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` through [`emit`]: a closed stdout pipe is a clean exit.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::table::emit(format_args!($($arg)*))
    };
}

/// Prints a header and rows with column widths fitted to the content.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    crate::outln!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: Vec<String> = header
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:width$}", h, width = widths[i]))
        .collect();
    crate::outln!("{}", line.join("  "));
    crate::outln!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        crate::outln!("{}", line.join("  "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printing_does_not_panic() {
        print_table(
            "demo",
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        print_table("empty", &["x"], &[]);
    }
}
