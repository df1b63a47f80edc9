"""mcs_analyze: AST-grounded determinism & concurrency analysis for the
mcommerce simulation sources.

Usage:
  python3 tools/mcs_analyze --root src [--root bench] \
      [--check determinism|concurrency|contracts|hotpath|shard|locking|...] \
      [--only <check>] [--paths <glob> ...] \
      [--frontend auto|internal|clang] [--compile-commands build/...] \
      [--baseline tools/mcs_analyze/baseline.json | --no-baseline] \
      [--write-baseline] [--json out.json] [--model-cache FILE] \
      [--list-checks] [-q]

Exit status: 0 clean (no findings beyond suppressions/baseline), 1 when new
findings are reported, 2 on usage errors. See DESIGN.md §9 for each check's
rule, rationale, and suppression syntax; §11 for the interprocedural
families.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import pickle
import sys
from pathlib import Path

import baseline as baseline_mod
import checks as checks_mod
import frontend_clang
import frontend_internal
from model import Project

CXX_SUFFIXES = {".cc", ".cpp", ".cxx", ".h", ".hpp", ".inl"}

TOOL_DIR = Path(__file__).resolve().parent
DEFAULT_BASELINE = TOOL_DIR / "baseline.json"


def _repo_root() -> Path:
    # tools/mcs_analyze/cli.py -> repo root is two levels up from tools/
    return TOOL_DIR.parent.parent


def _rel(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def collect_files(roots) -> list:
    files = []
    for root in roots:
        files.extend(p for p in sorted(root.rglob("*"))
                     if p.suffix in CXX_SUFFIXES and p.is_file())
    return files


# Bump when the structural model or internal frontend changes shape, so a
# stale cache from an older tool version is ignored rather than mis-decoded.
MODEL_CACHE_VERSION = 3  # v3: lambda parameter types (v2: arena-escape annotations)


def _load_model_cache(path: Path) -> dict:
    """{resolved path str: (mtime_ns, size, FileModel)}; {} when absent or
    written by a different tool version."""
    try:
        with open(path, "rb") as fh:
            data = pickle.load(fh)
        if data.get("version") == MODEL_CACHE_VERSION:
            return data["files"]
    except Exception:
        pass
    return {}


def _save_model_cache(path: Path, cache: dict) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            pickle.dump({"version": MODEL_CACHE_VERSION, "files": cache},
                        fh, protocol=pickle.HIGHEST_PROTOCOL)
    except OSError as e:
        print(f"mcs-analyze: could not write model cache {path}: {e}",
              file=sys.stderr)


def build_project(files, frontend: str, compile_commands,
                  cache_path: Path | None = None) -> tuple:
    """-> (Project, frontend_used)"""
    use_clang = False
    if frontend == "clang":
        if not frontend_clang.available():
            print("mcs-analyze: --frontend clang requested but clang.cindex "
                  "is unavailable; falling back to internal frontend",
                  file=sys.stderr)
        else:
            use_clang = True
    elif frontend == "auto":
        use_clang = frontend_clang.available()

    repo = _repo_root()
    args_by_src = (frontend_clang.load_compile_args(compile_commands)
                   if use_clang else {})
    # The model cache only applies to the internal frontend: clang models
    # hold cursor-derived facts tied to compile args we don't key on.
    cache = (_load_model_cache(cache_path)
             if cache_path is not None and not use_clang else {})
    fresh: dict = {}
    models = []
    for path in files:
        rel = _rel(path, repo)
        if use_clang:
            text = path.read_text(encoding="utf-8", errors="replace")
            args = args_by_src.get(str(path.resolve()))
            models.append(frontend_clang.build_file_model(
                path, rel, text, args))
            continue
        key = str(path.resolve())
        st = path.stat()
        hit = cache.get(key)
        if hit is not None and hit[0] == st.st_mtime_ns \
                and hit[1] == st.st_size:
            fm = hit[2]
        else:
            text = path.read_text(encoding="utf-8", errors="replace")
            fm = frontend_internal.build_file_model(path, rel, text)
        fresh[key] = (st.st_mtime_ns, st.st_size, fm)
        models.append(fm)
    if cache_path is not None and not use_clang:
        _save_model_cache(cache_path, fresh)
    return Project(models), ("clang" if use_clang else "internal")


def emit_json(path: Path, findings, frontend_used: str, checks_run) -> None:
    doc = {
        "tool": "mcs-analyze",
        "frontend": frontend_used,
        "checks": list(checks_run),
        "counts": {
            "total": len(findings),
            "active": sum(1 for f in findings
                          if not f.suppressed and not f.baselined),
            "suppressed": sum(1 for f in findings if f.suppressed),
            "baselined": sum(1 for f in findings if f.baselined),
        },
        "findings": [
            {
                "file": f.path,
                "line": f.line,
                "check": f.check,
                "severity": f.severity,
                "message": f.message,
                "context": f.context,
                "suppressed": f.suppressed,
                "baselined": f.baselined,
            }
            for f in findings
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def main(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="mcs_analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", action="append", type=Path, default=[],
                    help="directory tree to scan (repeatable; default src/)")
    ap.add_argument("--check", default="all",
                    help="comma list of checks or families "
                         "(determinism, concurrency, contracts, hotpath, "
                         "shard, locking, or names); default all")
    ap.add_argument("--only", default=None, metavar="CHECK",
                    help="run exactly this check or family (overrides "
                         "--check); shorthand for --check CHECK")
    ap.add_argument("--paths", action="append", default=[], metavar="GLOB",
                    help="only report findings whose repo-relative path "
                         "matches GLOB (repeatable; the whole tree is still "
                         "parsed so call-graph checks stay whole-program)")
    ap.add_argument("--model-cache", type=Path, default=None, metavar="FILE",
                    help="pickle cache of parsed file models, keyed by "
                         "mtime+size; shares parsing between consecutive "
                         "runs (internal frontend only)")
    ap.add_argument("--frontend", choices=("auto", "internal", "clang"),
                    default="auto",
                    help="auto uses clang.cindex when importable, else the "
                         "built-in token/structural frontend")
    ap.add_argument("--compile-commands", type=Path, default=None,
                    help="compile_commands.json for the clang frontend")
    ap.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                    help=f"accepted-findings file (default {DEFAULT_BASELINE})")
    ap.add_argument("--no-baseline", action="store_true",
                    help="ignore the baseline file; report everything")
    ap.add_argument("--write-baseline", action="store_true",
                    help="accept all current findings into --baseline and "
                         "exit 0")
    ap.add_argument("--json", type=Path, default=None, metavar="FILE",
                    help="also write machine-readable findings JSON")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="print findings only, no summary line")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    if args.list_checks:
        for family, names in checks_mod.FAMILIES.items():
            print(f"{family}:")
            for n in names:
                print(f"  {n} [{checks_mod.SEVERITY[n]}]")
        return 0

    try:
        selected = checks_mod.resolve_check_names(args.only
                                                  if args.only is not None
                                                  else args.check)
    except ValueError as e:
        print(f"mcs-analyze: {e}", file=sys.stderr)
        return 2

    roots = args.root or [_repo_root() / "src"]
    for root in roots:
        if not root.is_dir():
            print(f"mcs-analyze: no such directory: {root}", file=sys.stderr)
            return 2

    files = collect_files(roots)
    project, frontend_used = build_project(files, args.frontend,
                                           args.compile_commands,
                                           args.model_cache)
    findings = checks_mod.run_checks(project, selected)

    if args.paths:
        findings = [f for f in findings
                    if any(fnmatch.fnmatch(f.path, pat)
                           for pat in args.paths)]

    if args.write_baseline:
        n = baseline_mod.write(args.baseline, findings)
        print(f"mcs-analyze: baseline written to {args.baseline} "
              f"({n} accepted finding(s))")
        if args.json:
            emit_json(args.json, findings, frontend_used, selected)
        return 0

    if not args.no_baseline:
        baseline_mod.apply(findings, baseline_mod.load(args.baseline))

    active = [f for f in findings if not f.suppressed and not f.baselined]
    for f in active:
        print(f"{f.path}:{f.line}: [{f.check}] {f.severity}: {f.message}")

    if args.json:
        emit_json(args.json, findings, frontend_used, selected)

    if active:
        if not args.quiet:
            print(f"mcs-analyze: {len(active)} new finding(s) "
                  f"({len(findings) - len(active)} suppressed/baselined) in "
                  f"{len(files)} file(s) [frontend={frontend_used}]",
                  file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"mcs-analyze: clean ({len(files)} files, "
              f"{len(selected)} checks, frontend={frontend_used}"
              + (f", {len(findings)} suppressed/baselined" if findings
                 else "") + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
