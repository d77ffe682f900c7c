//! GSRC Bookshelf format reader and writer.
//!
//! The ISPD 2005 contest benchmarks are distributed in the Bookshelf
//! format: an `.aux` index file naming a `.nodes` (cells), `.nets`
//! (connectivity), `.pl` (placement) and `.scl` (rows) file. This module
//! parses and emits that format so real contest data can replace the
//! synthetic suites when available, and so global-placement results can be
//! handed to external legalizers the way the paper hands them to NTUPlace3.
//!
//! Conventions: Bookshelf stores lower-left cell corners and pin offsets
//! from the cell **center**; [`crate::Design`] stores centers everywhere,
//! so `.pl` coordinates are converted on the way in and out.

use crate::netlist::NetlistBuilder;
use crate::{CellId, CellKind, DbError, Design, Point, Rect, Row};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// In-memory contents of a Bookshelf benchmark (pre-assembly).
#[derive(Debug, Clone, Default)]
struct BookshelfData {
    /// name -> (width, height, the kind its `terminal`/`terminal_NI`
    /// keyword fixes, if any)
    nodes: Vec<(String, f64, f64, Option<CellKind>)>,
    /// net name -> pins (cell name, offset from center)
    nets: Vec<(String, Vec<(String, Point)>)>,
    /// name -> (lower-left x, lower-left y, fixed)
    placements: HashMap<String, (f64, f64, bool)>,
    rows: Vec<Row>,
    /// net name -> weight (from the .wts file; default 1.0).
    weights: HashMap<String, f64>,
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(idx) => &line[..idx],
        None => line,
    }
}

/// The value of a `Key : value` line when the line starts with `key`:
/// `Ok(None)` for another line, an error naming `format` and the line when
/// the value is missing or not a number.
fn parse_kv(line: &str, key: &str, format: &str, lineno: usize) -> Result<Option<f64>, DbError> {
    let Some(rest) = line.trim().strip_prefix(key) else {
        return Ok(None);
    };
    let Some(rest) = rest.trim_start().strip_prefix(':') else {
        return Ok(None);
    };
    let token = rest.split_whitespace().next().unwrap_or("");
    token.parse().map(Some).map_err(|_| {
        DbError::parse(
            format,
            lineno,
            format!("`{key}` value `{token}` is not a number"),
        )
    })
}

/// A `NumX : count` header line's count and line number, when `line` is
/// that header.
fn parse_count(
    line: &str,
    key: &str,
    format: &str,
    lineno: usize,
) -> Result<Option<(usize, usize)>, DbError> {
    match parse_kv(line, key, format, lineno)? {
        Some(v) if v >= 0.0 && v.fract() == 0.0 && v <= u32::MAX as f64 => {
            Ok(Some((v as usize, lineno)))
        }
        Some(v) => Err(DbError::parse(
            format,
            lineno,
            format!("`{key}` value {v} is not a count"),
        )),
        None => Ok(None),
    }
}

/// Checks a header count against the number of records found.
fn check_count(
    header: Option<(usize, usize)>,
    found: usize,
    key: &str,
    what: &str,
    format: &str,
) -> Result<(), DbError> {
    match header {
        Some((declared, lineno)) if declared != found => Err(DbError::parse(
            format,
            lineno,
            format!("`{key}` declares {declared} {what} but the file lists {found}"),
        )),
        _ => Ok(()),
    }
}

/// The kind of a fixed node of size `w` x `h`: a macro that blocks rows,
/// or a terminal when it has no area.
fn fixed_kind(w: f64, h: f64) -> CellKind {
    if w * h > 0.0 {
        CellKind::Fixed
    } else {
        CellKind::Terminal
    }
}

fn parse_nodes(content: &str, data: &mut BookshelfData) -> Result<(), DbError> {
    let mut seen: HashSet<&str> = HashSet::new();
    let (mut num_nodes, mut num_terminals) = (None, None);
    let mut terminals = 0;
    for (lineno, raw) in content.lines().enumerate() {
        let line = strip_comment(raw).trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with("UCLA") {
            continue;
        }
        if line.starts_with("Num") {
            if let Some(count) = parse_count(line, "NumNodes", "nodes", lineno)? {
                num_nodes = Some(count);
                continue;
            }
            if let Some(count) = parse_count(line, "NumTerminals", "nodes", lineno)? {
                num_terminals = Some(count);
                continue;
            }
        }
        let mut it = line.split_whitespace();
        let name = it
            .next()
            .ok_or_else(|| DbError::parse("nodes", lineno, "missing node name"))?;
        let w: f64 = it
            .next()
            .ok_or_else(|| DbError::parse("nodes", lineno, "missing width"))?
            .parse()
            .map_err(|_| DbError::parse("nodes", lineno, "width is not a number"))?;
        let h: f64 = it
            .next()
            .ok_or_else(|| DbError::parse("nodes", lineno, "missing height"))?
            .parse()
            .map_err(|_| DbError::parse("nodes", lineno, "height is not a number"))?;
        for (what, v) in [("width", w), ("height", h)] {
            if !v.is_finite() || v < 0.0 {
                return Err(DbError::parse(
                    "nodes",
                    lineno,
                    format!("node `{name}` has a non-finite or negative {what} ({v})"),
                ));
            }
        }
        if !seen.insert(name) {
            return Err(DbError::parse(
                "nodes",
                lineno,
                format!("duplicate node name `{name}`"),
            ));
        }
        let kind = match it.next() {
            Some(t) if t.eq_ignore_ascii_case("terminal") => Some(fixed_kind(w, h)),
            // ISPD 2015's "non-image" terminal: fixed, but cells may sit on
            // it, so it never blocks rows, whatever its size.
            Some(t) if t.eq_ignore_ascii_case("terminal_NI") => Some(CellKind::Terminal),
            _ => None,
        };
        terminals += usize::from(kind.is_some());
        data.nodes.push((name.to_string(), w, h, kind));
    }
    if data.nodes.is_empty() {
        return Err(DbError::parse("nodes", 0, "no node records found"));
    }
    check_count(num_nodes, data.nodes.len(), "NumNodes", "nodes", "nodes")?;
    check_count(
        num_terminals,
        terminals,
        "NumTerminals",
        "terminals",
        "nodes",
    )
}

/// A net being read: name, declared degree, the line of its `NetDegree`
/// record and the pins so far.
type OpenNet = (String, usize, usize, Vec<(String, Point)>);

/// Closes a net: its pin list must match its declared degree.
fn close_net(net: OpenNet, data: &mut BookshelfData) -> Result<(), DbError> {
    let (name, degree, lineno, pins) = net;
    if pins.len() != degree {
        return Err(DbError::parse(
            "nets",
            lineno,
            format!(
                "net `{name}` declares degree {degree} but lists {} pins",
                pins.len()
            ),
        ));
    }
    data.nets.push((name, pins));
    Ok(())
}

fn parse_nets(content: &str, data: &mut BookshelfData) -> Result<(), DbError> {
    let mut current: Option<OpenNet> = None;
    let mut anon = 0usize;
    let (mut num_nets, mut num_pins) = (None, None);
    let mut pins_found = 0;
    for (lineno, raw) in content.lines().enumerate() {
        let line = strip_comment(raw).trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with("UCLA") {
            continue;
        }
        if line.starts_with("Num") {
            if let Some(count) = parse_count(line, "NumNets", "nets", lineno)? {
                num_nets = Some(count);
                continue;
            }
            if let Some(count) = parse_count(line, "NumPins", "nets", lineno)? {
                num_pins = Some(count);
                continue;
            }
        }
        if let Some(rest) = line.strip_prefix("NetDegree") {
            if let Some(net) = current.take() {
                close_net(net, data)?;
            }
            let rest = rest.trim_start().strip_prefix(':').unwrap_or(rest).trim();
            let mut it = rest.split_whitespace();
            let degree: usize = it
                .next()
                .ok_or_else(|| DbError::parse("nets", lineno, "missing net degree"))?
                .parse()
                .map_err(|_| DbError::parse("nets", lineno, "degree is not a number"))?;
            let name = it.next().map(str::to_string).unwrap_or_else(|| {
                anon += 1;
                format!("net_{anon}")
            });
            // The capacity is a hint: bound it so a hostile degree cannot
            // allocate; the pin count is checked when the net closes.
            current = Some((name, degree, lineno, Vec::with_capacity(degree.min(64))));
        } else {
            let (net, _, _, pins) = current
                .as_mut()
                .ok_or_else(|| DbError::parse("nets", lineno, "pin before NetDegree"))?;
            // "cellname I/O/B : dx dy" (offsets optional)
            let mut it = line.split_whitespace();
            let cell = it
                .next()
                .ok_or_else(|| DbError::parse("nets", lineno, "missing cell name"))?
                .to_string();
            let mut dx: f64 = 0.0;
            let mut dy: f64 = 0.0;
            let mut offsets = it.skip_while(|t| *t != ":").skip(1);
            if let (Some(x), Some(y)) = (offsets.next(), offsets.next()) {
                dx = x
                    .parse()
                    .map_err(|_| DbError::parse("nets", lineno, "pin x offset is not a number"))?;
                dy = y
                    .parse()
                    .map_err(|_| DbError::parse("nets", lineno, "pin y offset is not a number"))?;
            }
            if !dx.is_finite() || !dy.is_finite() {
                return Err(DbError::parse(
                    "nets",
                    lineno,
                    format!("net `{net}` pin on `{cell}` has a non-finite offset ({dx}, {dy})"),
                ));
            }
            pins.push((cell, Point::new(dx, dy)));
            pins_found += 1;
        }
    }
    if let Some(net) = current.take() {
        close_net(net, data)?;
    }
    check_count(num_nets, data.nets.len(), "NumNets", "nets", "nets")?;
    check_count(num_pins, pins_found, "NumPins", "pins", "nets")
}

/// Parses a `.wts` net-weights file: `netname weight` per line.
fn parse_wts(content: &str, data: &mut BookshelfData) -> Result<(), DbError> {
    for (lineno, raw) in content.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() || line.starts_with("UCLA") {
            continue;
        }
        let mut it = line.split_whitespace();
        let name = it
            .next()
            .ok_or_else(|| DbError::parse("wts", lineno + 1, "missing net name"))?;
        let weight: f64 = it
            .next()
            .ok_or_else(|| DbError::parse("wts", lineno + 1, "missing weight"))?
            .parse()
            .map_err(|_| DbError::parse("wts", lineno + 1, "weight is not a number"))?;
        if !weight.is_finite() || weight < 0.0 {
            return Err(DbError::parse(
                "wts",
                lineno + 1,
                format!("net `{name}` has a non-finite or negative weight ({weight})"),
            ));
        }
        data.weights.insert(name.to_string(), weight);
    }
    Ok(())
}

fn parse_pl(content: &str, data: &mut BookshelfData) -> Result<(), DbError> {
    for (lineno, raw) in content.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() || line.starts_with("UCLA") {
            continue;
        }
        let mut it = line.split_whitespace();
        let name = it
            .next()
            .ok_or_else(|| DbError::parse("pl", lineno + 1, "missing cell name"))?;
        let x: f64 = it
            .next()
            .ok_or_else(|| DbError::parse("pl", lineno + 1, "missing x"))?
            .parse()
            .map_err(|_| DbError::parse("pl", lineno + 1, "x is not a number"))?;
        let y: f64 = it
            .next()
            .ok_or_else(|| DbError::parse("pl", lineno + 1, "missing y"))?
            .parse()
            .map_err(|_| DbError::parse("pl", lineno + 1, "y is not a number"))?;
        if !x.is_finite() || !y.is_finite() {
            return Err(DbError::parse(
                "pl",
                lineno + 1,
                format!("node `{name}` has a non-finite position ({x}, {y})"),
            ));
        }
        let fixed = line.contains("/FIXED");
        data.placements.insert(name.to_string(), (x, y, fixed));
    }
    Ok(())
}

/// Checks one `.scl` row field: finite, positive for the sizes
/// (`Height`, `Sitewidth`), non-negative for `NumSites`.
fn check_row_field(key: &str, v: f64, lineno: usize) -> Result<f64, DbError> {
    let bad = match key {
        "Height" | "Sitewidth" => !(v.is_finite() && v > 0.0),
        "NumSites" => !(v.is_finite() && v >= 0.0),
        _ => !v.is_finite(),
    };
    if bad {
        return Err(DbError::parse(
            "scl",
            lineno,
            format!("row `{key}` value {v} is out of range"),
        ));
    }
    Ok(v)
}

fn parse_scl(content: &str, data: &mut BookshelfData) -> Result<(), DbError> {
    let mut y = None;
    let mut height = None;
    let mut site_width = 1.0;
    let mut origin = None;
    let mut num_sites = None;
    for (lineno, raw) in content.lines().enumerate() {
        let line = strip_comment(raw).trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with("UCLA") || line.starts_with("NumRows") {
            continue;
        }
        if line.starts_with("CoreRow") {
            y = None;
            height = None;
            site_width = 1.0;
            origin = None;
            num_sites = None;
        } else if let Some(v) = parse_kv(line, "Coordinate", "scl", lineno)? {
            y = Some(check_row_field("Coordinate", v, lineno)?);
        } else if let Some(v) = parse_kv(line, "Height", "scl", lineno)? {
            height = Some(check_row_field("Height", v, lineno)?);
        } else if let Some(v) = parse_kv(line, "Sitewidth", "scl", lineno)? {
            site_width = check_row_field("Sitewidth", v, lineno)?;
        } else if line.starts_with("SubrowOrigin") {
            // "SubrowOrigin : 0 NumSites : 100"
            let tokens: Vec<&str> = line.split_whitespace().collect();
            for w in tokens.windows(3) {
                if w[1] != ":" || !matches!(w[0], "SubrowOrigin" | "NumSites") {
                    continue;
                }
                let v: f64 = w[2].parse().map_err(|_| {
                    DbError::parse(
                        "scl",
                        lineno,
                        format!("`{}` value `{}` is not a number", w[0], w[2]),
                    )
                })?;
                let v = check_row_field(w[0], v, lineno)?;
                if w[0] == "SubrowOrigin" {
                    origin = Some(v);
                } else {
                    num_sites = Some(v);
                }
            }
        } else if line.starts_with("End") {
            let (y, height) = match (y, height) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(DbError::parse(
                        "scl",
                        lineno,
                        "row block missing Coordinate or Height",
                    ))
                }
            };
            let x_min = origin.unwrap_or(0.0);
            let sites: f64 = num_sites.unwrap_or(0.0);
            data.rows.push(Row {
                y,
                height,
                x_min,
                x_max: x_min + sites * site_width,
                site_width,
            });
        }
    }
    Ok(())
}

fn assemble(name: &str, data: BookshelfData, target_density: f64) -> Result<Design, DbError> {
    let mut builder = NetlistBuilder::with_capacity(data.nodes.len(), data.nets.len(), 0);
    let mut ids: HashMap<String, CellId> = HashMap::with_capacity(data.nodes.len());
    let mut dims: HashMap<String, (f64, f64)> = HashMap::with_capacity(data.nodes.len());
    for (node_name, w, h, node_kind) in &data.nodes {
        let fixed = data.placements.get(node_name).map(|p| p.2).unwrap_or(false);
        let kind = match node_kind {
            Some(kind) => *kind,
            None if fixed => fixed_kind(*w, *h),
            None => CellKind::Movable,
        };
        let id = builder.add_cell(node_name.clone(), *w, *h, kind)?;
        ids.insert(node_name.clone(), id);
        dims.insert(node_name.clone(), (*w, *h));
    }
    for (net_name, pins) in &data.nets {
        let mut resolved = Vec::with_capacity(pins.len());
        for (cell_name, offset) in pins {
            let id = ids
                .get(cell_name)
                .copied()
                .ok_or_else(|| DbError::UnknownCell(cell_name.clone()))?;
            resolved.push((id, *offset));
        }
        let weight = data.weights.get(net_name).copied().unwrap_or(1.0);
        builder.add_net_weighted(net_name.clone(), resolved, weight)?;
    }
    let netlist = builder.finish()?;

    // Region: bounding box of rows if present, else of placements.
    let region = if data.rows.is_empty() {
        let mut r: Option<Rect> = None;
        for (nm, (x, y, _)) in &data.placements {
            let (w, h) = dims.get(nm).copied().unwrap_or((0.0, 0.0));
            let cell_rect = Rect::new(*x, *y, x + w, y + h);
            r = Some(match r {
                Some(acc) => acc.union(&cell_rect),
                None => cell_rect,
            });
        }
        r.ok_or_else(|| DbError::InvalidDesign("no rows and no placements".into()))?
    } else {
        let mut r = data.rows[0].rect();
        for row in &data.rows[1..] {
            r = r.union(&row.rect());
        }
        r
    };

    let mut positions = vec![region.center(); netlist.num_cells()];
    for (nm, (x, y, _)) in &data.placements {
        if let Some(&id) = ids.get(nm) {
            let (w, h) = dims[nm];
            positions[id.index()] = Point::new(x + w * 0.5, y + h * 0.5);
        }
    }

    Design::new(name, netlist, region, data.rows, target_density, positions)
}

/// Reads a Bookshelf benchmark starting from its `.aux` file.
///
/// The target density is not part of the format; callers supply it (the
/// ISPD 2005 contest used 1.0, the paper's flows commonly use 0.9).
///
/// # Errors
///
/// Returns [`DbError::Io`] on file-system problems and [`DbError::Parse`]
/// with file kind and line number on malformed content.
pub fn read_aux(aux_path: &Path, target_density: f64) -> Result<Design, DbError> {
    let aux = fs::read_to_string(aux_path)?;
    let dir = aux_path.parent().unwrap_or_else(|| Path::new("."));
    let mut files: Vec<PathBuf> = Vec::new();
    for token in aux.split_whitespace() {
        if token.contains('.') && !token.ends_with(':') {
            files.push(dir.join(token));
        }
    }
    let mut data = BookshelfData::default();
    let mut found_nodes = false;
    let mut found_nets = false;
    for f in &files {
        let ext = f.extension().and_then(|e| e.to_str()).unwrap_or("");
        let content = match ext {
            "nodes" | "nets" | "pl" | "scl" => fs::read_to_string(f)?,
            // .wts files are optional in many releases.
            "wts" => match fs::read_to_string(f) {
                Ok(c) => c,
                Err(_) => continue,
            },
            _ => continue,
        };
        match ext {
            "nodes" => {
                parse_nodes(&content, &mut data)?;
                found_nodes = true;
            }
            "nets" => {
                parse_nets(&content, &mut data)?;
                found_nets = true;
            }
            "pl" => parse_pl(&content, &mut data)?,
            "scl" => parse_scl(&content, &mut data)?,
            "wts" => parse_wts(&content, &mut data)?,
            _ => unreachable!(),
        }
    }
    if !found_nodes || !found_nets {
        return Err(DbError::parse(
            "aux",
            1,
            "aux file does not name .nodes and .nets files",
        ));
    }
    let name = aux_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design")
        .to_string();
    assemble(&name, data, target_density)
}

/// Writes a design as a Bookshelf benchmark into `dir`, producing
/// `<name>.aux/.nodes/.nets/.pl/.scl`, and returns the `.aux` path.
///
/// # Errors
///
/// Returns [`DbError::Io`] on file-system problems.
pub fn write_design(design: &Design, dir: &Path) -> Result<PathBuf, DbError> {
    fs::create_dir_all(dir)?;
    let name = design.name();
    let nl = design.netlist();

    let mut nodes = String::from("UCLA nodes 1.0\n");
    let terminals = nl.cells().iter().filter(|c| !c.is_movable()).count();
    let _ = writeln!(nodes, "NumNodes : {}", nl.num_cells());
    let _ = writeln!(nodes, "NumTerminals : {terminals}");
    for c in nl.cells() {
        let keyword = match c.kind() {
            CellKind::Movable => "",
            CellKind::Terminal if c.area() > 0.0 => " terminal_NI",
            _ => " terminal",
        };
        let _ = writeln!(
            nodes,
            "\t{} {} {}{keyword}",
            c.name(),
            c.width(),
            c.height()
        );
    }

    let mut nets = String::from("UCLA nets 1.0\n");
    let _ = writeln!(nets, "NumNets : {}", nl.num_nets());
    let _ = writeln!(nets, "NumPins : {}", nl.num_pins());
    for net in nl.nets() {
        let _ = writeln!(nets, "NetDegree : {} {}", net.degree(), net.name());
        for pid in net.pins() {
            let pin = nl.pin(pid);
            let cell = nl.cell(pin.cell);
            let _ = writeln!(
                nets,
                "\t{} B : {:.6} {:.6}",
                cell.name(),
                pin.offset.x,
                pin.offset.y
            );
        }
    }

    let mut pl = String::from("UCLA pl 1.0\n");
    for (i, c) in nl.cells().iter().enumerate() {
        let p = design.positions()[i];
        let lx = p.x - c.width() * 0.5;
        let ly = p.y - c.height() * 0.5;
        if c.is_movable() {
            let _ = writeln!(pl, "{} {:.6} {:.6} : N", c.name(), lx, ly);
        } else {
            let _ = writeln!(pl, "{} {:.6} {:.6} : N /FIXED", c.name(), lx, ly);
        }
    }

    let mut scl = String::from("UCLA scl 1.0\n");
    let _ = writeln!(scl, "NumRows : {}", design.rows().len());
    for row in design.rows() {
        let _ = writeln!(scl, "CoreRow Horizontal");
        let _ = writeln!(scl, "  Coordinate : {}", row.y);
        let _ = writeln!(scl, "  Height : {}", row.height);
        let _ = writeln!(scl, "  Sitewidth : {}", row.site_width);
        let _ = writeln!(scl, "  Sitespacing : {}", row.site_width);
        let _ = writeln!(scl, "  Siteorient : 1");
        let _ = writeln!(scl, "  Sitesymmetry : 1");
        let _ = writeln!(
            scl,
            "  SubrowOrigin : {} NumSites : {}",
            row.x_min,
            row.num_sites()
        );
        let _ = writeln!(scl, "End");
    }

    let aux =
        format!("RowBasedPlacement : {name}.nodes {name}.nets {name}.wts {name}.pl {name}.scl\n");

    fs::write(dir.join(format!("{name}.nodes")), nodes)?;
    fs::write(dir.join(format!("{name}.nets")), nets)?;
    fs::write(dir.join(format!("{name}.pl")), pl)?;
    fs::write(dir.join(format!("{name}.scl")), scl)?;
    let mut wts = String::from("UCLA wts 1.0\n");
    for net in nl.nets() {
        if (net.weight() - 1.0).abs() > 1e-12 {
            let _ = writeln!(wts, "{} {}", net.name(), net.weight());
        }
    }
    fs::write(dir.join(format!("{name}.wts")), wts)?;
    let aux_path = dir.join(format!("{name}.aux"));
    fs::write(&aux_path, aux)?;
    Ok(aux_path)
}

/// Writes only a `.pl` placement file for `design` (the artifact a global
/// placer hands to an external legalizer).
///
/// # Errors
///
/// Returns [`DbError::Io`] on file-system problems.
pub fn write_pl(design: &Design, path: &Path) -> Result<(), DbError> {
    let nl = design.netlist();
    let mut pl = String::from("UCLA pl 1.0\n");
    for (i, c) in nl.cells().iter().enumerate() {
        let p = design.positions()[i];
        let lx = p.x - c.width() * 0.5;
        let ly = p.y - c.height() * 0.5;
        let suffix = if c.is_movable() { "" } else { " /FIXED" };
        let _ = writeln!(pl, "{} {:.6} {:.6} : N{}", c.name(), lx, ly, suffix);
    }
    fs::write(path, pl)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::{synthesize, SynthesisSpec};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xplace_bookshelf_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_preserves_design() {
        let design = synthesize(
            &SynthesisSpec::new("rt", 120, 130)
                .with_seed(3)
                .with_macro_count(2),
        )
        .unwrap();
        let dir = temp_dir("roundtrip");
        let aux = write_design(&design, &dir).unwrap();
        let back = read_aux(&aux, design.target_density()).unwrap();

        assert_eq!(back.netlist().num_cells(), design.netlist().num_cells());
        assert_eq!(back.netlist().num_nets(), design.netlist().num_nets());
        assert_eq!(back.netlist().num_pins(), design.netlist().num_pins());
        assert_eq!(back.rows().len(), design.rows().len());
        // HPWL is a full functional of positions + offsets + connectivity.
        let a = design.total_hpwl();
        let b = back.total_hpwl();
        assert!((a - b).abs() < 1e-6 * a.max(1.0), "hpwl {a} vs {b}");
        // Cell kinds survive.
        for id in design.netlist().cell_ids() {
            let orig = design.netlist().cell(id);
            let echo = back.netlist().cell_by_name(orig.name()).unwrap();
            assert_eq!(back.netlist().cell(echo).kind(), orig.kind());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_handwritten_benchmark() {
        let dir = temp_dir("hand");
        fs::write(
            dir.join("mini.aux"),
            "RowBasedPlacement : mini.nodes mini.nets mini.wts mini.pl mini.scl\n",
        )
        .unwrap();
        fs::write(
            dir.join("mini.nodes"),
            "UCLA nodes 1.0\n# comment\nNumNodes : 3\nNumTerminals : 1\n\
             \ta 2 12\n\tb 4 12\n\tpad 0 0 terminal\n",
        )
        .unwrap();
        fs::write(
            dir.join("mini.nets"),
            "UCLA nets 1.0\nNumNets : 2\nNumPins : 4\n\
             NetDegree : 2 n0\n\ta B : 0.5 0\n\tb B : -1 0\n\
             NetDegree : 2 n1\n\ta B : 0 0\n\tpad B : 0 0\n",
        )
        .unwrap();
        fs::write(
            dir.join("mini.pl"),
            "UCLA pl 1.0\na 10 12 : N\nb 20 24 : N\npad 0 0 : N /FIXED\n",
        )
        .unwrap();
        fs::write(
            dir.join("mini.scl"),
            "UCLA scl 1.0\nNumRows : 2\n\
             CoreRow Horizontal\n  Coordinate : 0\n  Height : 12\n  Sitewidth : 1\n  SubrowOrigin : 0 NumSites : 50\nEnd\n\
             CoreRow Horizontal\n  Coordinate : 12\n  Height : 12\n  Sitewidth : 1\n  SubrowOrigin : 0 NumSites : 50\nEnd\n",
        )
        .unwrap();

        let d = read_aux(&dir.join("mini.aux"), 0.9).unwrap();
        assert_eq!(d.netlist().num_cells(), 3);
        assert_eq!(d.netlist().num_nets(), 2);
        assert_eq!(d.rows().len(), 2);
        // a is movable at lower-left (10,12) with size 2x12 -> center (11,18).
        let a = d.netlist().cell_by_name("a").unwrap();
        assert_eq!(d.position(a), Point::new(11.0, 18.0));
        // pad is a zero-area fixed node -> Terminal.
        let pad = d.netlist().cell_by_name("pad").unwrap();
        assert_eq!(d.netlist().cell(pad).kind(), CellKind::Terminal);
        // Region spans the rows: x in [0,50], y in [0,24].
        assert_eq!(d.region(), Rect::new(0.0, 0.0, 50.0, 24.0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wts_weights_are_applied_and_round_trip() {
        let mut data = BookshelfData::default();
        parse_nodes("UCLA nodes 1.0\n a 1 1\n b 1 1\n", &mut data).unwrap();
        parse_nets(
            "NetDegree : 2 crit\n a B : 0 0\n b B : 0 0\nNetDegree : 2 plain\n a B : 0 0\n b B : 0 0\n",
            &mut data,
        )
        .unwrap();
        parse_wts("UCLA wts 1.0\ncrit 3.5\n", &mut data).unwrap();
        parse_pl("a 0 0 : N\nb 5 5 : N\n", &mut data).unwrap();
        let d = assemble("w", data, 0.9).unwrap();
        let nl = d.netlist();
        let crit = nl.nets().find(|n| n.name() == "crit").unwrap();
        let plain = nl.nets().find(|n| n.name() == "plain").unwrap();
        assert_eq!(crit.weight(), 3.5);
        assert_eq!(plain.weight(), 1.0);
    }

    #[test]
    fn malformed_wts_reports_line() {
        let mut data = BookshelfData::default();
        let err = parse_wts("UCLA wts 1.0\nnet_a not_a_number\n", &mut data).unwrap_err();
        assert!(matches!(err, DbError::Parse { line: 2, .. }));
        let err = parse_wts("net_a -2\n", &mut data).unwrap_err();
        assert!(matches!(err, DbError::Parse { .. }));
    }

    #[test]
    fn unknown_cell_in_nets_is_an_error() {
        let mut data = BookshelfData::default();
        parse_nodes("UCLA nodes 1.0\n a 1 1\n", &mut data).unwrap();
        parse_nets("NetDegree : 2 n\n a B : 0 0\n ghost B : 0 0\n", &mut data).unwrap();
        let err = assemble("x", data, 0.9).unwrap_err();
        assert!(matches!(err, DbError::UnknownCell(_)));
    }

    #[test]
    fn malformed_lines_report_line_numbers() {
        let mut data = BookshelfData::default();
        let err = parse_nodes("UCLA nodes 1.0\n a pants 1\n", &mut data).unwrap_err();
        match err {
            DbError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn duplicate_node_names_are_rejected_with_their_line() {
        let mut data = BookshelfData::default();
        let err =
            parse_nodes("UCLA nodes 1.0\n o0 1 1\n o1 1 1\n o0 2 2\n", &mut data).unwrap_err();
        assert_eq!(
            err,
            DbError::parse("nodes", 4, "duplicate node name `o0`"),
            "{err}"
        );
    }

    #[test]
    fn non_finite_or_negative_node_sizes_are_rejected() {
        for (text, line) in [
            ("UCLA nodes 1.0\n a 1 1\n b inf 1\n", 3),
            ("a NaN 1\n", 1),
            ("a 1 -2\n", 1),
        ] {
            let mut data = BookshelfData::default();
            let err = parse_nodes(text, &mut data).unwrap_err();
            match &err {
                DbError::Parse {
                    line: l, message, ..
                } => {
                    assert_eq!(*l, line, "{err}");
                    assert!(message.contains("non-finite or negative"), "{err}");
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_pl_coordinates_are_rejected() {
        let mut data = BookshelfData::default();
        let err = parse_pl("UCLA pl 1.0\na 0 0 : N\nb NaN 5 : N\n", &mut data).unwrap_err();
        match &err {
            DbError::Parse {
                format,
                line,
                message,
            } => {
                assert_eq!((format.as_str(), *line), ("pl", 3), "{err}");
                assert!(message.contains("`b`"), "{err}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        let err = parse_pl("a 0 -inf : N\n", &mut data).unwrap_err();
        assert!(matches!(err, DbError::Parse { line: 1, .. }), "{err}");
    }

    /// Asserts `err` is a parse error of `format` at `line` whose message
    /// contains `needle`.
    fn assert_parse_error(err: DbError, format: &str, line: usize, needle: &str) {
        match &err {
            DbError::Parse {
                format: f,
                line: l,
                message,
            } => {
                assert_eq!((f.as_str(), *l), (format, line), "{err}");
                assert!(message.contains(needle), "{err}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn non_finite_net_numerics_are_rejected_naming_the_net() {
        let mut data = BookshelfData::default();
        let err = parse_wts("UCLA wts 1.0\nn0 1\nn1 nan\n", &mut data).unwrap_err();
        assert_parse_error(err, "wts", 3, "`n1`");
        let err = parse_wts("n0 inf\n", &mut data).unwrap_err();
        assert_parse_error(err, "wts", 1, "non-finite or negative weight");
        let nets = "NetDegree : 2 n0\n a B : 0 0\n b B : nan 1\n";
        let err = parse_nets(nets, &mut data).unwrap_err();
        let needle = "net `n0` pin on `b` has a non-finite offset";
        assert_parse_error(err, "nets", 3, needle);
        let err = parse_nets("NetDegree : 1 n0\n a B : 0 -inf\n", &mut data).unwrap_err();
        assert_parse_error(err, "nets", 2, "non-finite offset");
    }

    #[test]
    fn a_net_with_fewer_or_more_pins_than_its_degree_is_rejected() {
        for (text, line, needle) in [
            (
                "NetDegree : 7 big\n a B : 0 0\n b B : 0 0\n",
                1,
                "net `big` declares degree 7 but lists 2 pins",
            ),
            (
                "NetDegree : 2 n0\n a B\n b B\n c B\nNetDegree : 2 n1\n a B\n b B\n",
                1,
                "declares degree 2 but lists 3 pins",
            ),
            (
                "NetDegree : 2 n0\n a B\n b B\nNetDegree : 3 n1\n a B\n",
                4,
                "net `n1` declares degree 3 but lists 1 pins",
            ),
            // A degree no file could hold is an error, not an allocation.
            (
                "NetDegree : 18446744073709551615 huge\n a B\n",
                1,
                "declares degree 18446744073709551615 but lists 1 pins",
            ),
        ] {
            let err = parse_nets(text, &mut BookshelfData::default()).unwrap_err();
            assert_parse_error(err, "nets", line, needle);
        }
    }

    #[test]
    fn header_counts_must_match_the_records() {
        let nodes =
            "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n a 1 1\n b 1 1\n p 0 0 terminal\n";
        parse_nodes(nodes, &mut BookshelfData::default()).unwrap();
        for (text, line, needle) in [
            (
                "NumNodes : 3\n a 1 1\n b 1 1\n",
                1,
                "`NumNodes` declares 3 nodes but the file lists 2",
            ),
            (
                "NumNodes : 2\nNumTerminals : 1\n a 1 1\n b 1 1\n",
                2,
                "`NumTerminals` declares 1",
            ),
            (
                "NumNodes : x\n a 1 1\n",
                1,
                "`NumNodes` value `x` is not a number",
            ),
            ("NumNodes : 2.5\n a 1 1\n", 1, "is not a count"),
        ] {
            let err = parse_nodes(text, &mut BookshelfData::default()).unwrap_err();
            assert_parse_error(err, "nodes", line, needle);
        }
        let net = "NetDegree : 2 n0\n a B\n b B\n";
        for (text, line, needle) in [
            (
                format!("NumNets : 2\n{net}"),
                1,
                "`NumNets` declares 2 nets but the file lists 1",
            ),
            (
                format!("NumNets : 1\nNumPins : 3\n{net}"),
                2,
                "`NumPins` declares 3 pins",
            ),
        ] {
            let err = parse_nets(&text, &mut BookshelfData::default()).unwrap_err();
            assert_parse_error(err, "nets", line, needle);
        }
        parse_nets(
            &format!("NumNets : 1\nNumPins : 2\n{net}"),
            &mut BookshelfData::default(),
        )
        .unwrap();
    }

    #[test]
    fn degenerate_or_unparsable_rows_are_rejected_with_their_line() {
        let row =
            |body: &str| format!("UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n{body}End\n");
        let good =
            "  Coordinate : 0\n  Height : 12\n  Sitewidth : 1\n  SubrowOrigin : 0 NumSites : 50\n";
        parse_scl(&row(good), &mut BookshelfData::default()).unwrap();
        for (field, bad, needle) in [
            (
                "Height : 12",
                "Height : 0",
                "row `Height` value 0 is out of range",
            ),
            ("Height : 12", "Height : -3", "out of range"),
            ("Height : 12", "Height : nan", "out of range"),
            (
                "Height : 12",
                "Height : twelve",
                "`Height` value `twelve` is not a number",
            ),
            (
                "Sitewidth : 1",
                "Sitewidth : 0",
                "row `Sitewidth` value 0 is out of range",
            ),
            (
                "Coordinate : 0",
                "Coordinate : inf",
                "row `Coordinate` value inf",
            ),
            (
                "SubrowOrigin : 0",
                "SubrowOrigin : zero",
                "`SubrowOrigin` value `zero` is not a number",
            ),
            (
                "NumSites : 50",
                "NumSites : fifty",
                "`NumSites` value `fifty` is not a number",
            ),
            (
                "NumSites : 50",
                "NumSites : -5",
                "row `NumSites` value -5 is out of range",
            ),
        ] {
            let text = row(&good.replace(field, bad));
            let line = text.lines().position(|l| l.contains(bad)).unwrap() + 1;
            let err = parse_scl(&text, &mut BookshelfData::default()).unwrap_err();
            assert_parse_error(err, "scl", line, needle);
        }
    }

    #[test]
    fn pin_before_net_degree_is_an_error() {
        let mut data = BookshelfData::default();
        let err = parse_nets("a B : 0 0\n", &mut data).unwrap_err();
        assert!(matches!(err, DbError::Parse { .. }));
    }

    #[test]
    fn missing_files_produce_io_errors() {
        let err = read_aux(Path::new("/nonexistent/foo.aux"), 0.9).unwrap_err();
        assert!(matches!(err, DbError::Io(_)));
    }

    #[test]
    fn write_pl_emits_fixed_markers() {
        let design = synthesize(
            &SynthesisSpec::new("plq", 50, 55)
                .with_seed(4)
                .with_macro_count(1),
        )
        .unwrap();
        let dir = temp_dir("pl");
        let path = dir.join("out.pl");
        write_pl(&design, &path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("/FIXED"));
        assert!(text.starts_with("UCLA pl 1.0"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn terminal_ni_nodes_are_fixed_terminals_and_round_trip() {
        let mut data = BookshelfData::default();
        parse_nodes(
            "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n a 2 12\n b 2 12\n io 4 4 terminal_NI\n",
            &mut data,
        )
        .unwrap();
        parse_nets(
            "NetDegree : 3 n0\n a B : 0 0\n b B : 0 0\n io B : 0 0\n",
            &mut data,
        )
        .unwrap();
        // No `/FIXED` in the `.pl`: the `.nodes` keyword alone fixes `io`.
        parse_pl("a 0 0 : N\nb 8 0 : N\nio 20 12 : N\n", &mut data).unwrap();
        data.rows.push(Row {
            y: 0.0,
            height: 12.0,
            x_min: 0.0,
            x_max: 40.0,
            site_width: 1.0,
        });
        let d = assemble("ni", data, 0.9).unwrap();
        let stats = crate::stats::DesignStats::of(&d);
        assert_eq!(
            (stats.num_movable, stats.num_fixed, stats.num_terminals),
            (2, 0, 1)
        );
        let io = d.netlist().cell_by_name("io").unwrap();
        assert_eq!(d.netlist().cell(io).kind(), CellKind::Terminal);
        // Lower-left (20, 12) of a 4 x 4 node.
        assert_eq!(d.position(io), Point::new(22.0, 14.0));

        let dir = temp_dir("ni");
        let aux = write_design(&d, &dir).unwrap();
        let text = fs::read_to_string(dir.join("ni.nodes")).unwrap();
        assert!(text.contains("io 4 4 terminal_NI"), "{text}");
        let back = read_aux(&aux, 0.9).unwrap();
        let io = back.netlist().cell_by_name("io").unwrap();
        assert_eq!(back.netlist().cell(io).kind(), CellKind::Terminal);
        assert_eq!(back.position(io), Point::new(22.0, 14.0));
        let _ = fs::remove_dir_all(&dir);
    }
}
