//! Legality checking: the invariants a legal placement must satisfy.

use crate::rows::build_rows;
use crate::LegalError;
use xplace_db::{CellKind, Design};

/// Verifies that every movable cell is inside the region, aligned to a
/// row and to the site grid, free of overlap with other movable cells and
/// with fixed macros, and (when the design has fence regions) contained
/// in its fence.
///
/// # Errors
///
/// Returns the first violated invariant as a [`LegalError`].
pub fn check_legality(design: &Design) -> Result<(), LegalError> {
    let rows = build_rows(design)?;
    let nl = design.netlist();
    let region = design.region();
    let eps = 1e-6;

    // Collect movable rectangles with names.
    struct Item {
        name: String,
        lx: f64,
        ly: f64,
        ux: f64,
        uy: f64,
    }
    let mut items: Vec<Item> = Vec::new();
    for id in nl.cell_ids() {
        let c = nl.cell(id);
        if !c.is_movable() {
            continue;
        }
        let r = design.cell_rect(id);
        if r.lx < region.lx - eps
            || r.ux > region.ux + eps
            || r.ly < region.ly - eps
            || r.uy > region.uy + eps
        {
            return Err(LegalError::OutOfRegion {
                cell: c.name().to_string(),
            });
        }
        // Row alignment: the cell's bottom must sit on some row's y.
        let row = rows
            .iter()
            .find(|row| (r.ly - row.y).abs() < eps)
            .ok_or_else(|| LegalError::Misaligned {
                cell: c.name().to_string(),
                what: "row",
            })?;
        // Site alignment within that row's origin.
        let offset = (r.lx - row.origin) / row.site;
        if (offset - offset.round()).abs() > 1e-4 {
            return Err(LegalError::Misaligned {
                cell: c.name().to_string(),
                what: "site",
            });
        }
        // Fence containment.
        if let Some(fi) = design.fence_of(id) {
            if !design.fences()[fi].contains_rect(&r) {
                return Err(LegalError::OutOfFence {
                    cell: c.name().to_string(),
                    fence: design.fences()[fi].name().to_string(),
                });
            }
        }
        items.push(Item {
            name: c.name().to_string(),
            lx: r.lx,
            ly: r.ly,
            ux: r.ux,
            uy: r.uy,
        });
    }

    // Overlap among movable cells: sweep by row band then x.
    items.sort_by(|a, b| {
        (a.ly, a.lx)
            .partial_cmp(&(b.ly, b.lx))
            .expect("finite coordinates")
    });
    for w in items.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if (a.ly - b.ly).abs() < eps && b.lx < a.ux - eps && a.lx < b.ux - eps {
            return Err(LegalError::Overlap {
                a: a.name.clone(),
                b: b.name.clone(),
            });
        }
    }

    // Overlap against fixed macros.
    let macros: Vec<(String, xplace_db::Rect)> = nl
        .cell_ids()
        .filter(|&c| nl.cell(c).kind() == CellKind::Fixed)
        .map(|c| (nl.cell(c).name().to_string(), design.cell_rect(c)))
        .collect();
    for item in &items {
        for (mname, m) in &macros {
            if item.lx < m.ux - eps
                && m.lx < item.ux - eps
                && item.ly < m.uy - eps
                && m.ly < item.uy - eps
            {
                return Err(LegalError::Overlap {
                    a: item.name.clone(),
                    b: mname.clone(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::netlist::{CellKind, NetlistBuilder};
    use xplace_db::{Point, Rect, Row};

    fn two_cell_design(p0: Point, p1: Point) -> Design {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 2.0, 4.0, CellKind::Movable).unwrap();
        let c = b.add_cell("c", 2.0, 4.0, CellKind::Movable).unwrap();
        b.add_net("n", vec![(a, Point::default()), (c, Point::default())])
            .unwrap();
        let nl = b.finish().unwrap();
        Design::new(
            "chk",
            nl,
            Rect::new(0.0, 0.0, 20.0, 8.0),
            vec![
                Row {
                    y: 0.0,
                    height: 4.0,
                    x_min: 0.0,
                    x_max: 20.0,
                    site_width: 1.0,
                },
                Row {
                    y: 4.0,
                    height: 4.0,
                    x_min: 0.0,
                    x_max: 20.0,
                    site_width: 1.0,
                },
            ],
            0.9,
            vec![p0, p1],
        )
        .unwrap()
    }

    #[test]
    fn legal_placement_passes() {
        let d = two_cell_design(Point::new(1.0, 2.0), Point::new(5.0, 6.0));
        check_legality(&d).unwrap();
    }

    #[test]
    fn overlap_is_detected() {
        let d = two_cell_design(Point::new(1.0, 2.0), Point::new(2.0, 2.0));
        assert!(matches!(
            check_legality(&d),
            Err(LegalError::Overlap { .. })
        ));
    }

    #[test]
    fn row_misalignment_is_detected() {
        let d = two_cell_design(Point::new(1.0, 3.0), Point::new(5.0, 2.0));
        assert!(matches!(
            check_legality(&d),
            Err(LegalError::Misaligned { what: "row", .. })
        ));
    }

    #[test]
    fn site_misalignment_is_detected() {
        let d = two_cell_design(Point::new(1.5, 2.0), Point::new(5.0, 2.0));
        assert!(matches!(
            check_legality(&d),
            Err(LegalError::Misaligned { what: "site", .. })
        ));
    }

    #[test]
    fn out_of_region_is_detected() {
        let d = two_cell_design(Point::new(-1.0, 2.0), Point::new(5.0, 2.0));
        assert!(matches!(
            check_legality(&d),
            Err(LegalError::OutOfRegion { .. })
        ));
    }

    #[test]
    fn touching_cells_are_legal() {
        let d = two_cell_design(Point::new(1.0, 2.0), Point::new(3.0, 2.0));
        check_legality(&d).unwrap();
    }
}
