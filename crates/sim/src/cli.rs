//! The one command-line parser of `cdf-sim` and `throughput-gate`.
//!
//! A [`Cli`] declares each command once: a synopsis head (its words, then
//! its `<positional>`s) and flag blocks, each written as its usage text (a
//! `title:` line, then `  --flag [VALUE]  help` lines). [`Cli::parse`]
//! checks arguments against it and prints the usage generated from it, so
//! the two cannot drift apart (DESIGN.md § Command line).

use std::fmt::Display;
use std::process::exit;
use std::str::FromStr;

/// One command (or form of one): its synopsis head, e.g. `run <workload>`
/// (empty for a program without subcommands), and its flag blocks.
pub type Command = (&'static str, &'static [&'static str]);

/// A program: the one declaration its parser and its usage read.
#[derive(Debug)]
pub struct Cli {
    /// The program name the usage shows.
    pub program: &'static str,
    /// Every command, in usage order.
    pub commands: &'static [Command],
}

/// The `--flag [VALUE]` head of every flag line in `blocks`: a word
/// before the two-space gap is the placeholder of a value the flag takes.
fn flags(blocks: &'static [&'static str]) -> impl Iterator<Item = &'static str> {
    blocks
        .iter()
        .flat_map(|b| b.lines().skip(1))
        .map(str::trim_start)
        .filter(|l| l.starts_with("--"))
        .map(|l| l.split("  ").next().unwrap_or(l))
}

impl Cli {
    /// Parses `args` (without the program name), or prints the error and
    /// the usage and exits 2.
    pub fn parse(&'static self, args: &[String]) -> Args {
        self.try_parse(args).unwrap_or_else(|e| self.fail(e))
    }

    /// [`parse`](Self::parse) without the exit. The first form of a command
    /// the arguments fit wins; when none fits, the error is the one found
    /// furthest into the arguments (empty when no command's words match).
    fn try_parse(&'static self, args: &[String]) -> Result<Args, String> {
        let mut best: Option<(usize, String)> = None;
        for &(command, blocks) in self.commands {
            let words = command.split(" <").next().unwrap_or(command);
            let n = words.split_whitespace().count();
            if args.len() < n || args[..n].join(" ") != words {
                continue;
            }
            let mut parsed = Args {
                cli: self,
                command,
                blocks,
                positionals: Vec::new(),
                flags: Vec::new(),
            };
            match parsed.check(&args[n..]) {
                Ok(()) => return Ok(parsed),
                Err(e) if best.as_ref().is_none_or(|b| e.0 > b.0) => best = Some(e),
                Err(_) => {}
            }
        }
        Err(best.map(|(_, message)| message).unwrap_or_default())
    }

    /// One synopsis per command with every flag it takes, wrapped at 80
    /// columns, then each block once.
    fn usage(&self) -> String {
        let mut out = String::from("usage:\n");
        for &(command, blocks) in self.commands {
            let head = format!("  {} {command}", self.program);
            let (indent, mut width) = (head.trim_end().len(), head.trim_end().len());
            out += head.trim_end();
            for flag in flags(blocks) {
                if width > indent && width + flag.len() + 3 > 80 {
                    out += &format!("\n{:indent$}", "");
                    width = indent;
                }
                out += &format!(" [{flag}]");
                width += flag.len() + 3;
            }
            out.push('\n');
        }
        let mut shown = Vec::new();
        for &block in self.commands.iter().flat_map(|(_, blocks)| *blocks) {
            if !shown.contains(&block) {
                shown.push(block);
                out += &format!("\n{block}\n");
            }
        }
        out
    }

    /// A usage error: prints `message` (unless empty) and the usage, exits 2.
    fn fail(&self, message: impl Display) -> ! {
        let message = message.to_string();
        if !message.is_empty() {
            eprintln!("{message}");
        }
        eprint!("{}", self.usage());
        exit(2)
    }
}

/// The value, or exit 1 with the error: a failed run or I/O, not a usage
/// error.
pub fn or_exit<T, E: Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    })
}

/// The checked arguments of one command.
#[derive(Debug)]
pub struct Args {
    cli: &'static Cli,
    /// The synopsis head of the command (form) they matched.
    pub command: &'static str,
    blocks: &'static [&'static str],
    positionals: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Sorts `args` into positionals and flags, or says what is wrong at
    /// which index.
    fn check(&mut self, args: &[String]) -> Result<(), (usize, String)> {
        let mut wanted = self.command.split(' ').filter(|w| w.starts_with('<'));
        let mut it = args.iter().enumerate();
        while let Some((i, a)) = it.next() {
            if !a.starts_with("--") {
                if wanted.next().is_none() {
                    return Err((i, format!("unexpected argument `{a}`")));
                }
                self.positionals.push(a.clone());
                continue;
            }
            let Some(head) = flags(self.blocks).find(|h| h.split(' ').next() == Some(a)) else {
                return Err((i, format!("unknown flag `{a}`")));
            };
            let name = &head[..a.len()];
            if self.has(name) {
                return Err((i, format!("{name} given twice")));
            }
            let value = match head.contains(' ').then(|| it.next()) {
                None => None,
                Some(Some((_, v))) if !v.starts_with("--") => Some(v.clone()),
                Some(_) => return Err((i, format!("missing value for {name}"))),
            };
            self.flags.push((name, value));
        }
        match wanted.next() {
            Some(p) => Err((args.len(), format!("missing {p}"))),
            None => Ok(()),
        }
    }

    /// The `i`-th positional (a missing one was rejected).
    pub fn positional(&self, i: usize) -> &str {
        &self.positionals[i]
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given(flag).is_some()
    }

    /// The value `flag` was given, if it was.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given(flag)?.as_deref()
    }

    fn given(&self, flag: &str) -> Option<&Option<String>> {
        debug_assert!(
            flags(self.blocks).any(|h| h.split(' ').next() == Some(flag)),
            "{flag} is not declared for `{}`",
            self.command
        );
        self.flags.iter().find(|(f, _)| *f == flag).map(|(_, v)| v)
    }

    /// The value of `flag` parsed as `T`, if given; one that does not parse
    /// is a usage error naming the flag.
    pub fn get<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.fail(format!("invalid value `{v}` for {flag}")))
        })
    }

    /// [`get`](Self::get) for a flag the command cannot run without.
    pub fn require<T: FromStr>(&self, flag: &str) -> T {
        self.get(flag)
            .unwrap_or_else(|| self.fail(format!("missing {flag}")))
    }

    /// The comma-separated list `flag` was given, if it was.
    pub fn list(&self, flag: &str) -> Option<Vec<String>> {
        self.value(flag)
            .map(|v| v.split(',').map(str::to_string).collect())
    }

    /// A usage error found after parsing: prints `message` and the usage,
    /// exits 2.
    pub fn fail(&self, message: impl Display) -> ! {
        self.cli.fail(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZING: &str = "\
sizing:
  --rob N        window size, spelled out at length so that the synopsis
                 of a command with a long name has to wrap
  --fast         quick sizing";

    static TEST: Cli = Cli {
        program: "t",
        commands: &[
            ("run <workload>", &[SIZING]),
            ("compare <workload>", &[SIZING]),
            (
                "compare <refA> <refB>",
                &["store:\n  --store FILE   the store"],
            ),
            ("campaign shard with a long name", &[SIZING, SIZING, SIZING]),
        ],
    };

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        TEST.try_parse(&args)
    }

    #[test]
    fn flags_and_their_value_placeholders_come_from_the_usage_lines() {
        let heads: Vec<_> = flags(&[SIZING]).collect();
        assert_eq!(heads, ["--rob N", "--fast"]);
    }

    #[test]
    fn positionals_may_come_anywhere_and_values_read_typed() {
        for line in [
            "run astar_like --rob 512 --fast",
            "run --rob 512 astar_like --fast",
            "run --fast --rob 512 astar_like",
        ] {
            let a = parse(line).unwrap();
            assert_eq!(a.command, "run <workload>");
            assert_eq!(a.positional(0), "astar_like", "{line}");
            assert_eq!(a.get::<usize>("--rob"), Some(512), "{line}");
            assert_eq!(a.value("--rob"), Some("512"), "{line}");
            assert!(a.has("--fast"), "{line}");
        }
        let a = parse("run x").unwrap();
        assert_eq!(a.get::<usize>("--rob"), None);
        assert!(!a.has("--fast"));
    }

    #[test]
    fn each_malformed_command_line_is_rejected_with_its_message() {
        for (line, message) in [
            ("run x --robb 1", "unknown flag `--robb`"),
            ("run x --ro 1", "unknown flag `--ro`"),
            ("run x --rob", "missing value for --rob"),
            ("run x --rob --fast", "missing value for --rob"),
            ("run x y", "unexpected argument `y`"),
            ("run --fast", "missing <workload>"),
            ("run x --fast --fast", "--fast given twice"),
            ("run x --rob 1 --rob 2", "--rob given twice"),
            ("", ""),
            ("bogus", ""),
            ("campaign shard", ""),
        ] {
            assert_eq!(parse(line).err().as_deref(), Some(message), "`{line}`");
        }
    }

    #[test]
    fn a_command_declared_twice_parses_as_the_first_form_the_arguments_fit() {
        let a = parse("compare x --fast").unwrap();
        assert_eq!(a.command, "compare <workload>");
        let a = parse("compare --store s a b").unwrap();
        assert_eq!(a.command, "compare <refA> <refB>");
        assert_eq!((a.positional(0), a.positional(1)), ("a", "b"));
        assert_eq!(a.value("--store"), Some("s"));
        // No form fits: the error is the one found furthest along.
        for (line, message) in [
            ("compare a b --fast", "unknown flag `--fast`"),
            ("compare x --store s", "missing <refB>"),
            ("compare x --fast --rob", "missing value for --rob"),
            ("compare x --fsat", "unknown flag `--fsat`"),
        ] {
            assert_eq!(parse(line).err().as_deref(), Some(message), "`{line}`");
        }
    }

    #[test]
    fn usage_shows_every_flag_of_every_command_and_each_block_once() {
        let usage = TEST.usage();
        assert!(usage.starts_with(
            "usage:\n  t run <workload> [--rob N] [--fast]\n  \
             t compare <workload> [--rob N] [--fast]\n  \
             t compare <refA> <refB> [--store FILE]\n"
        ));
        assert!(usage.contains(
            "  t campaign shard with a long name [--rob N] [--fast] [--rob N] [--fast]\n  \
             \x20                                 [--rob N] [--fast]\n"
        ));
        assert_eq!(usage.matches("\nsizing:\n").count(), 1);
        assert!(usage.contains(&format!("\n{SIZING}\n")));
        assert!(usage.ends_with("\nstore:\n  --store FILE   the store\n"));
    }
}
