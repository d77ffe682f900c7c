//! LEF/DEF reader and writer for the subset used by placement flows.
//!
//! The ISPD 2015 contest benchmarks ship as LEF (library: macro sizes and
//! pin shapes) plus DEF (design: die area, rows, components, pins, nets).
//! This module handles the records a global placer needs:
//!
//! * LEF: `MACRO` / `SIZE ... BY ...` / `PIN ... RECT ...`,
//! * DEF: `DIEAREA`, `ROW`, `COMPONENTS` (+`PLACED`/`FIXED`), `PINS`,
//!   `NETS`.
//!
//! Everything else (routing layers, tracks, special nets, fence regions —
//! the paper removes the latter anyway) is skipped token-wise.
//!
//! The writer emits one LEF macro per distinct cell footprint with a single
//! center pin, which is lossy for per-pin offsets; it exists so synthetic
//! designs can be fed to external DEF-consuming tools.

use crate::netlist::NetlistBuilder;
use crate::{CellId, CellKind, DbError, Design, Point, Rect, Row};
use std::collections::HashMap;
use std::fmt::Write as _;

/// A macro (cell master) parsed from LEF.
#[derive(Debug, Clone, PartialEq)]
pub struct LefMacro {
    /// Master name.
    pub name: String,
    /// Cell width.
    pub width: f64,
    /// Cell height.
    pub height: f64,
    /// Pin offsets from the cell **center**, keyed by pin name.
    pub pins: HashMap<String, Point>,
}

/// Parses the LEF subset into a macro library keyed by master name.
///
/// # Errors
///
/// Returns [`DbError::Parse`] for structurally broken macro blocks.
pub fn parse_lef(content: &str) -> Result<HashMap<String, LefMacro>, DbError> {
    let mut macros = HashMap::new();
    let mut lines = content.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let line = raw.trim();
        let Some(name) = line.strip_prefix("MACRO ") else {
            continue;
        };
        let name = name.trim().to_string();
        let mut width = 0.0;
        let mut height = 0.0;
        let mut pins: HashMap<String, Point> = HashMap::new();
        let mut current_pin: Option<String> = None;
        let mut closed = false;
        for (inner_no, inner_raw) in lines.by_ref() {
            let inner = inner_raw.trim();
            if let Some(rest) = inner.strip_prefix("SIZE ") {
                // SIZE w BY h ;
                let toks: Vec<&str> = rest.trim_end_matches(';').split_whitespace().collect();
                if toks.len() < 3 || !toks[1].eq_ignore_ascii_case("BY") {
                    return Err(DbError::parse("lef", inner_no + 1, "malformed SIZE record"));
                }
                width = toks[0]
                    .parse()
                    .map_err(|_| DbError::parse("lef", inner_no + 1, "SIZE width"))?;
                height = toks[2]
                    .parse()
                    .map_err(|_| DbError::parse("lef", inner_no + 1, "SIZE height"))?;
            } else if let Some(pin_name) = inner.strip_prefix("PIN ") {
                current_pin = Some(pin_name.trim().to_string());
            } else if let Some(rest) = inner.strip_prefix("RECT ") {
                if let Some(pin) = &current_pin {
                    let toks: Vec<f64> = rest
                        .trim_end_matches(';')
                        .split_whitespace()
                        .filter_map(|t| t.parse().ok())
                        .collect();
                    if toks.len() == 4 {
                        // Offset of the pin-shape center from the macro
                        // origin (lower-left); converted to center-relative
                        // once SIZE is known, at block end.
                        pins.insert(
                            pin.clone(),
                            Point::new(0.5 * (toks[0] + toks[2]), 0.5 * (toks[1] + toks[3])),
                        );
                    }
                }
            } else if inner.starts_with("END") {
                let target = inner.trim_start_matches("END").trim();
                if let Some(pin) = &current_pin {
                    if target == pin {
                        current_pin = None;
                        continue;
                    }
                }
                if target == name {
                    closed = true;
                    break;
                }
            }
        }
        if !closed {
            return Err(DbError::parse(
                "lef",
                lineno + 1,
                format!("MACRO {name} not closed"),
            ));
        }
        if width <= 0.0 || height <= 0.0 {
            return Err(DbError::parse(
                "lef",
                lineno + 1,
                format!("MACRO {name} missing SIZE"),
            ));
        }
        // Convert pin offsets from origin-relative to center-relative.
        for p in pins.values_mut() {
            p.x -= width * 0.5;
            p.y -= height * 0.5;
        }
        macros.insert(
            name.clone(),
            LefMacro {
                name,
                width,
                height,
                pins,
            },
        );
    }
    Ok(macros)
}

/// Extracts the `( x y )` pair that follows a `PLACED`/`FIXED` keyword.
fn parse_placed_point(tokens: &[&str], at: usize) -> Option<Point> {
    // tokens[at] == "PLACED"/"FIXED"; expect "(", x, y, ")".
    if tokens.len() > at + 4 && tokens[at + 1] == "(" && tokens[at + 4] == ")" {
        let x = tokens[at + 2].parse().ok()?;
        let y = tokens[at + 3].parse().ok()?;
        Some(Point::new(x, y))
    } else {
        None
    }
}

/// Parses the DEF subset, resolving cell masters against `lef`.
///
/// # Errors
///
/// Returns [`DbError::Parse`] on malformed records and on a component or
/// pin name given twice (naming the line and the name), and
/// [`DbError::UnknownCell`] when a component references an unknown master
/// or a net references an unknown component.
pub fn parse_def(
    content: &str,
    lef: &HashMap<String, LefMacro>,
    target_density: f64,
) -> Result<Design, DbError> {
    let mut name = String::from("design");
    let mut die: Option<Rect> = None;
    let mut rows: Vec<Row> = Vec::new();
    let mut builder = NetlistBuilder::new();
    let mut ids: HashMap<String, CellId> = HashMap::new();
    let mut masters: HashMap<String, String> = HashMap::new();
    let mut placements: HashMap<String, (Point, bool)> = HashMap::new();
    let mut io_pins: HashMap<String, (String, Point)> = HashMap::new(); // pin -> (net, pos)

    #[derive(PartialEq)]
    enum Section {
        Top,
        Components,
        Pins,
        Nets,
    }
    let mut section = Section::Top;
    // Statements end with ';' and may span lines; accumulate.
    let mut pending = String::new();
    for (lineno, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        pending.push(' ');
        pending.push_str(line);
        // Statements end with ';' except the keyword-only `END <section>`
        // lines, which are complete on their own.
        if !line.ends_with(';') && !line.starts_with("END") {
            continue;
        }
        let stmt = pending.trim().trim_end_matches(';').trim().to_string();
        pending.clear();
        let tokens: Vec<&str> = stmt.split_whitespace().collect();
        if tokens.is_empty() {
            continue;
        }
        match section {
            Section::Top => match tokens[0] {
                "DESIGN" if tokens.len() >= 2 => name = tokens[1].to_string(),
                "DIEAREA" => {
                    let nums: Vec<f64> = tokens.iter().filter_map(|t| t.parse().ok()).collect();
                    if nums.len() < 4 {
                        return Err(DbError::parse("def", lineno + 1, "malformed DIEAREA"));
                    }
                    die = Some(Rect::new(nums[0], nums[1], nums[2], nums[3]));
                }
                "ROW" => {
                    // ROW name site x y orient DO n BY 1 STEP sx sy
                    if tokens.len() < 5 {
                        return Err(DbError::parse("def", lineno + 1, "malformed ROW"));
                    }
                    let x: f64 = tokens[3]
                        .parse()
                        .map_err(|_| DbError::parse("def", lineno + 1, "ROW x is not a number"))?;
                    let y: f64 = tokens[4]
                        .parse()
                        .map_err(|_| DbError::parse("def", lineno + 1, "ROW y is not a number"))?;
                    let mut n = 1.0;
                    let mut step = 1.0;
                    let mut height = 12.0;
                    if let Some(pos) = tokens.iter().position(|t| *t == "DO") {
                        n = tokens
                            .get(pos + 1)
                            .and_then(|t| t.parse().ok())
                            .unwrap_or(1.0);
                    }
                    if let Some(pos) = tokens.iter().position(|t| *t == "STEP") {
                        step = tokens
                            .get(pos + 1)
                            .and_then(|t| t.parse().ok())
                            .unwrap_or(1.0);
                    }
                    if let Some(site) = lef.values().find(|m| m.name.contains("Site")) {
                        height = site.height;
                    } else if let Some(prev) = rows.last() {
                        height = prev.height;
                    }
                    rows.push(Row {
                        y,
                        height,
                        x_min: x,
                        x_max: x + n * step,
                        site_width: step,
                    });
                }
                "COMPONENTS" => section = Section::Components,
                "PINS" => section = Section::Pins,
                "NETS" => section = Section::Nets,
                _ => {}
            },
            Section::Components => {
                if tokens[0] == "END" {
                    section = Section::Top;
                    continue;
                }
                if tokens[0] != "-" || tokens.len() < 3 {
                    continue;
                }
                let comp = tokens[1].to_string();
                let master_name = tokens[2];
                let master = lef
                    .get(master_name)
                    .ok_or_else(|| DbError::UnknownCell(format!("master `{master_name}`")))?;
                let fixed = tokens.contains(&"FIXED");
                let kind = if fixed {
                    CellKind::Fixed
                } else {
                    CellKind::Movable
                };
                let id = builder
                    .add_cell(comp.clone(), master.width, master.height, kind)
                    .map_err(|_| {
                        DbError::parse("def", lineno + 1, format!("duplicate component `{comp}`"))
                    })?;
                ids.insert(comp.clone(), id);
                masters.insert(comp.clone(), master_name.to_string());
                if let Some(at) = tokens.iter().position(|t| *t == "PLACED" || *t == "FIXED") {
                    if let Some(ll) = parse_placed_point(&tokens, at) {
                        placements.insert(
                            comp,
                            (
                                Point::new(ll.x + master.width * 0.5, ll.y + master.height * 0.5),
                                fixed,
                            ),
                        );
                    }
                }
            }
            Section::Pins => {
                if tokens[0] == "END" {
                    section = Section::Top;
                    continue;
                }
                if tokens[0] != "-" || tokens.len() < 2 {
                    continue;
                }
                let pin_name = tokens[1].to_string();
                let net = tokens
                    .iter()
                    .position(|t| *t == "NET")
                    .and_then(|i| tokens.get(i + 1))
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| pin_name.clone());
                let pos = tokens
                    .iter()
                    .position(|t| *t == "PLACED" || *t == "FIXED")
                    .and_then(|at| parse_placed_point(&tokens, at))
                    .unwrap_or_default();
                let term_name = format!("__pin_{pin_name}");
                let id = builder
                    .add_cell(term_name.clone(), 0.0, 0.0, CellKind::Terminal)
                    .map_err(|_| {
                        DbError::parse("def", lineno + 1, format!("duplicate pin `{pin_name}`"))
                    })?;
                ids.insert(term_name.clone(), id);
                placements.insert(term_name, (pos, true));
                io_pins.insert(pin_name, (net, pos));
            }
            Section::Nets => {
                if tokens[0] == "END" {
                    section = Section::Top;
                    continue;
                }
                if tokens[0] != "-" || tokens.len() < 2 {
                    continue;
                }
                let net_name = tokens[1].to_string();
                let mut pins: Vec<(CellId, Point)> = Vec::new();
                let mut i = 2;
                while i < tokens.len() {
                    if tokens[i] == "(" && i + 2 < tokens.len() {
                        let owner = tokens[i + 1];
                        let pin_name = tokens[i + 2];
                        if owner == "PIN" {
                            // External pin: materialize a terminal on demand.
                            let (.., pos) = io_pins
                                .get(pin_name)
                                .cloned()
                                .unwrap_or((net_name.clone(), Point::default()));
                            let term_name = format!("__pin_{pin_name}");
                            let id = match ids.get(&term_name) {
                                Some(&id) => id,
                                None => {
                                    let id = builder.add_cell(
                                        term_name.clone(),
                                        0.0,
                                        0.0,
                                        CellKind::Terminal,
                                    )?;
                                    ids.insert(term_name.clone(), id);
                                    placements.insert(term_name, (pos, true));
                                    id
                                }
                            };
                            pins.push((id, Point::default()));
                        } else {
                            let id = ids.get(owner).copied().ok_or_else(|| {
                                DbError::UnknownCell(format!("component `{owner}`"))
                            })?;
                            let offset = masters
                                .get(owner)
                                .and_then(|m| lef.get(m))
                                .and_then(|m| m.pins.get(pin_name))
                                .copied()
                                .unwrap_or_default();
                            pins.push((id, offset));
                        }
                        i += 4; // skip "( owner pin )"
                    } else {
                        i += 1;
                    }
                }
                if !pins.is_empty() {
                    builder.add_net(net_name, pins)?;
                }
            }
        }
    }

    let netlist = builder.finish()?;
    let region = match die {
        Some(r) => r,
        None => {
            if rows.is_empty() {
                return Err(DbError::parse("def", 0, "no DIEAREA and no ROW records"));
            }
            let mut r = rows[0].rect();
            for row in &rows[1..] {
                r = r.union(&row.rect());
            }
            r
        }
    };
    let mut positions = vec![region.center(); netlist.num_cells()];
    for (comp, (pos, _)) in &placements {
        if let Some(&id) = ids.get(comp) {
            positions[id.index()] = *pos;
        }
    }
    Design::new(&name, netlist, region, rows, target_density, positions)
}

/// Emits a LEF library covering every distinct cell footprint of `design`
/// (one macro per `(width, height)` class, single center pin `P`).
pub fn write_lef(design: &Design) -> String {
    let mut seen: Vec<(f64, f64)> = Vec::new();
    let nl = design.netlist();
    for c in nl.cells() {
        let key = (c.width(), c.height());
        if c.width() > 0.0 && !seen.contains(&key) {
            seen.push(key);
        }
    }
    let mut out = String::from("VERSION 5.8 ;\n");
    for (w, h) in seen {
        let _ = writeln!(out, "MACRO MC_{w}_{h}");
        let _ = writeln!(out, "  SIZE {w} BY {h} ;");
        let _ = writeln!(out, "  PIN P");
        let _ = writeln!(
            out,
            "    RECT {} {} {} {} ;",
            w * 0.5,
            h * 0.5,
            w * 0.5,
            h * 0.5
        );
        let _ = writeln!(out, "  END P");
        let _ = writeln!(out, "END MC_{w}_{h}");
    }
    out.push_str("END LIBRARY\n");
    out
}

/// Emits the design as DEF against the library produced by [`write_lef`].
///
/// Per-pin offsets are replaced by each master's center pin, which is the
/// documented lossy simplification of this writer.
pub fn write_def(design: &Design) -> String {
    let nl = design.netlist();
    let r = design.region();
    let mut out = String::from("VERSION 5.8 ;\n");
    let _ = writeln!(out, "DESIGN {} ;", design.name());
    let _ = writeln!(out, "UNITS DISTANCE MICRONS 1000 ;");
    let _ = writeln!(out, "DIEAREA ( {} {} ) ( {} {} ) ;", r.lx, r.ly, r.ux, r.uy);
    for (i, row) in design.rows().iter().enumerate() {
        let _ = writeln!(
            out,
            "ROW ROW_{i} CoreSite {} {} N DO {} BY 1 STEP {} 0 ;",
            row.x_min,
            row.y,
            row.num_sites(),
            row.site_width
        );
    }
    let comps: Vec<_> = nl
        .cells()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.width() > 0.0)
        .collect();
    let _ = writeln!(out, "COMPONENTS {} ;", comps.len());
    for (i, c) in comps {
        let p = design.positions()[i];
        let lx = p.x - c.width() * 0.5;
        let ly = p.y - c.height() * 0.5;
        let keyword = if c.is_movable() { "PLACED" } else { "FIXED" };
        let _ = writeln!(
            out,
            "- {} MC_{}_{} + {} ( {} {} ) N ;",
            c.name(),
            c.width(),
            c.height(),
            keyword,
            lx,
            ly
        );
    }
    let _ = writeln!(out, "END COMPONENTS");
    let terminals: Vec<_> = nl
        .cells()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.width() == 0.0)
        .collect();
    let _ = writeln!(out, "PINS {} ;", terminals.len());
    for (i, c) in &terminals {
        let p = design.positions()[*i];
        let _ = writeln!(
            out,
            "- {} + NET {} + PLACED ( {} {} ) N ;",
            c.name(),
            c.name(),
            p.x,
            p.y
        );
    }
    let _ = writeln!(out, "END PINS");
    let _ = writeln!(out, "NETS {} ;", nl.num_nets());
    for net in nl.nets() {
        let mut line = format!("- {}", net.name());
        for pid in net.pins() {
            let pin = nl.pin(pid);
            let cell = nl.cell(pin.cell);
            if cell.width() > 0.0 {
                let _ = write!(line, " ( {} P )", cell.name());
            } else {
                let _ = write!(line, " ( PIN {} )", cell.name());
            }
        }
        line.push_str(" ;");
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out, "END NETS");
    let _ = writeln!(out, "END DESIGN");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::{synthesize, SynthesisSpec};

    const LEF: &str = "\
VERSION 5.8 ;
MACRO INV
  SIZE 2 BY 12 ;
  PIN A
    RECT 0.2 5 0.4 7 ;
  END A
  PIN Z
    RECT 1.6 5 1.8 7 ;
  END Z
END INV
MACRO RAM
  SIZE 40 BY 48 ;
  PIN D
    RECT 0 0 2 2 ;
  END D
END RAM
END LIBRARY
";

    const DEF: &str = "\
VERSION 5.8 ;
DESIGN demo ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 200 120 ) ;
ROW ROW_0 CoreSite 0 0 N DO 200 BY 1 STEP 1 0 ;
ROW ROW_1 CoreSite 0 12 N DO 200 BY 1 STEP 1 0 ;
COMPONENTS 3 ;
- u1 INV + PLACED ( 10 0 ) N ;
- u2 INV + PLACED ( 50 12 ) N ;
- r1 RAM + FIXED ( 100 48 ) N ;
END COMPONENTS
PINS 1 ;
- clk + NET n2 + PLACED ( 0 60 ) N ;
END PINS
NETS 2 ;
- n1 ( u1 Z ) ( u2 A ) ( r1 D ) ;
- n2 ( u1 A ) ( PIN clk ) ;
END NETS
END DESIGN
";

    #[test]
    fn parses_lef_macros_and_pins() {
        let lib = parse_lef(LEF).unwrap();
        assert_eq!(lib.len(), 2);
        let inv = &lib["INV"];
        assert_eq!(inv.width, 2.0);
        assert_eq!(inv.height, 12.0);
        // Pin A rect center (0.3, 6), center-relative: (-0.7, 0).
        let a = inv.pins["A"];
        assert!((a.x + 0.7).abs() < 1e-12 && a.y.abs() < 1e-12);
    }

    #[test]
    fn parses_def_into_design() {
        let lib = parse_lef(LEF).unwrap();
        let d = parse_def(DEF, &lib, 0.9).unwrap();
        assert_eq!(d.name(), "demo");
        assert_eq!(d.region(), Rect::new(0.0, 0.0, 200.0, 120.0));
        assert_eq!(d.rows().len(), 2);
        // 3 components + 1 materialized terminal.
        assert_eq!(d.netlist().num_cells(), 4);
        assert_eq!(d.netlist().num_nets(), 2);
        let u1 = d.netlist().cell_by_name("u1").unwrap();
        assert_eq!(d.position(u1), Point::new(11.0, 6.0)); // ll (10,0) + (1,6)
        assert!(d.netlist().cell(u1).is_movable());
        let r1 = d.netlist().cell_by_name("r1").unwrap();
        assert_eq!(d.netlist().cell(r1).kind(), CellKind::Fixed);
        let term = d.netlist().cell_by_name("__pin_clk").unwrap();
        assert_eq!(d.netlist().cell(term).kind(), CellKind::Terminal);
        assert_eq!(d.position(term), Point::new(0.0, 60.0));
    }

    #[test]
    fn def_net_pin_offsets_come_from_lef() {
        let lib = parse_lef(LEF).unwrap();
        let d = parse_def(DEF, &lib, 0.9).unwrap();
        // n1's first pin is u1/Z with LEF offset (1.7-1, 6-6) = (0.7, 0).
        let n1 = d.netlist().net(crate::NetId(0));
        let pin = d.netlist().pin(n1.pins().next().unwrap());
        assert!((pin.offset.x - 0.7).abs() < 1e-12);
    }

    #[test]
    fn duplicate_component_or_pin_names_are_parse_errors() {
        let lib = parse_lef(LEF).unwrap();
        // Line 9 is the second component record, line 14 the second pin.
        let renamed = DEF.replace("- u2 INV", "- u1 INV");
        let err = parse_def(&renamed, &lib, 0.9).unwrap_err();
        assert_eq!(err, DbError::parse("def", 9, "duplicate component `u1`"));
        let twice = DEF.replace(
            "- clk + NET n2 + PLACED ( 0 60 ) N ;\n",
            "- clk + NET n2 + PLACED ( 0 60 ) N ;\n- clk + NET n2 + PLACED ( 0 70 ) N ;\n",
        );
        let err = parse_def(&twice, &lib, 0.9).unwrap_err();
        assert_eq!(err, DbError::parse("def", 14, "duplicate pin `clk`"));
    }

    #[test]
    fn unknown_master_is_an_error() {
        let lib = parse_lef(LEF).unwrap();
        let def = DEF.replace("INV", "NOPE");
        assert!(matches!(
            parse_def(&def, &lib, 0.9),
            Err(DbError::UnknownCell(_))
        ));
    }

    #[test]
    fn unclosed_macro_is_an_error() {
        let broken = "MACRO X\n  SIZE 1 BY 1 ;\n";
        assert!(matches!(parse_lef(broken), Err(DbError::Parse { .. })));
    }

    #[test]
    fn macro_without_size_is_an_error() {
        let broken = "MACRO X\nEND X\n";
        assert!(matches!(parse_lef(broken), Err(DbError::Parse { .. })));
    }

    #[test]
    fn writer_round_trips_counts_and_centers() {
        let design = synthesize(
            &SynthesisSpec::new("defrt", 80, 90)
                .with_seed(12)
                .with_macro_count(2),
        )
        .unwrap();
        let lef = write_lef(&design);
        let def = write_def(&design);
        let lib = parse_lef(&lef).unwrap();
        let back = parse_def(&def, &lib, design.target_density()).unwrap();
        assert_eq!(back.netlist().num_cells(), design.netlist().num_cells());
        assert_eq!(back.netlist().num_nets(), design.netlist().num_nets());
        // Centers survive (pin offsets are intentionally lossy).
        for id in design.netlist().cell_ids() {
            let name = design.netlist().cell(id).name();
            let name = if design.netlist().cell(id).width() == 0.0 {
                format!("__pin_{name}")
            } else {
                name.to_string()
            };
            let echo = back.netlist().cell_by_name(&name).unwrap();
            let a = design.position(id);
            let b = back.position(echo);
            assert!(
                (a.x - b.x).abs() < 1e-9 && (a.y - b.y).abs() < 1e-9,
                "{name}"
            );
        }
    }

    #[test]
    fn multiline_net_statements_parse() {
        let lib = parse_lef(LEF).unwrap();
        // The n1 net record split across three lines.
        let def = DEF.replace(
            "- n1 ( u1 Z ) ( u2 A ) ( r1 D ) ;",
            "- n1 ( u1 Z )
  ( u2 A )
  ( r1 D ) ;",
        );
        let d = parse_def(&def, &lib, 0.9).unwrap();
        assert_eq!(d.netlist().num_nets(), 2);
        let n1 = d.netlist().net(crate::NetId(0));
        assert_eq!(n1.degree(), 3);
    }

    #[test]
    fn def_without_diearea_or_rows_is_an_error() {
        let lib = parse_lef(LEF).unwrap();
        let def = "VERSION 5.8 ;\nDESIGN x ;\n";
        assert!(parse_def(def, &lib, 0.9).is_err());
    }
}
