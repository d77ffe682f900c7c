//! Internal row/segment model shared by the legalizer and detailed placer.

use crate::LegalError;
use xplace_db::{CellKind, Design, Rect};

/// A free interval `[x0, x1)` of one row (between blockages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Segment {
    pub x0: f64,
    pub x1: f64,
}

impl Segment {
    pub(crate) fn width(&self) -> f64 {
        self.x1 - self.x0
    }
}

/// One placement row with its free segments.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowModel {
    pub y: f64,
    pub height: f64,
    pub site: f64,
    /// Origin of the site grid (the row's original left edge); all
    /// snapping is relative to this, independent of blockage carving.
    pub origin: f64,
    pub segments: Vec<Segment>,
}

impl RowModel {
    /// Center y of the row.
    pub(crate) fn center_y(&self) -> f64 {
        self.y + 0.5 * self.height
    }

    /// Snaps an x coordinate to the row's site grid (toward negative
    /// infinity).
    pub(crate) fn snap_down(&self, x: f64) -> f64 {
        self.origin + ((x - self.origin) / self.site).floor() * self.site
    }

    /// Snaps an x coordinate to the row's site grid (toward positive
    /// infinity).
    pub(crate) fn snap_up(&self, x: f64) -> f64 {
        self.origin + ((x - self.origin) / self.site).ceil() * self.site
    }
}

/// Builds the row/segment model of a design: uses the declared rows (or
/// synthesizes them from the region and the modal movable-cell height) and
/// carves out fixed-cell blockages.
pub(crate) fn build_rows(design: &Design) -> Result<Vec<RowModel>, LegalError> {
    let region = design.region();
    let mut rows: Vec<RowModel> = if design.rows().is_empty() {
        // Synthesize rows from the modal movable height.
        let nl = design.netlist();
        let mut heights: Vec<f64> = nl
            .cells()
            .iter()
            .filter(|c| c.is_movable())
            .map(|c| c.height())
            .collect();
        if heights.is_empty() {
            return Err(LegalError::NoRows);
        }
        heights.sort_by(|a, b| a.partial_cmp(b).expect("finite heights"));
        let h = heights[heights.len() / 2];
        if h <= 0.0 {
            return Err(LegalError::NoRows);
        }
        let n = (region.height() / h).floor() as usize;
        (0..n)
            .map(|i| RowModel {
                y: region.ly + i as f64 * h,
                height: h,
                site: 1.0,
                origin: region.lx,
                segments: vec![Segment {
                    x0: region.lx,
                    x1: region.ux,
                }],
            })
            .collect()
    } else {
        design
            .rows()
            .iter()
            .map(|r| RowModel {
                y: r.y,
                height: r.height,
                site: r.site_width,
                origin: r.x_min,
                segments: vec![Segment {
                    x0: r.x_min,
                    x1: r.x_max,
                }],
            })
            .collect()
    };
    if rows.is_empty() {
        return Err(LegalError::NoRows);
    }
    rows.sort_by(|a, b| a.y.partial_cmp(&b.y).expect("finite row y"));

    // Carve fixed blockages.
    let nl = design.netlist();
    let blockages: Vec<Rect> = nl
        .cell_ids()
        .filter(|&c| nl.cell(c).kind() == CellKind::Fixed)
        .map(|c| design.cell_rect(c))
        .collect();
    for row in &mut rows {
        let strip = Rect::new(region.lx, row.y, region.ux, row.y + row.height);
        for b in &blockages {
            if !b.intersects(&strip) {
                continue;
            }
            let mut next = Vec::with_capacity(row.segments.len() + 1);
            for seg in &row.segments {
                if b.ux <= seg.x0 || b.lx >= seg.x1 {
                    next.push(*seg);
                    continue;
                }
                if b.lx > seg.x0 {
                    next.push(Segment {
                        x0: seg.x0,
                        x1: b.lx,
                    });
                }
                if b.ux < seg.x1 {
                    next.push(Segment {
                        x0: b.ux,
                        x1: seg.x1,
                    });
                }
            }
            row.segments = next;
        }
        // Snap segment starts up to the row's site grid so every position
        // derived from a segment bound is automatically site-aligned,
        // then drop slivers narrower than one site.
        for seg in &mut row.segments {
            let snapped = row.origin + ((seg.x0 - row.origin) / row.site).ceil() * row.site;
            seg.x0 = snapped;
        }
        row.segments.retain(|s| s.width() >= row.site);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};

    #[test]
    fn rows_come_from_the_design() {
        let d = synthesize(&SynthesisSpec::new("r", 100, 110).with_seed(1)).unwrap();
        let rows = build_rows(&d).unwrap();
        assert_eq!(rows.len(), d.rows().len());
        assert!(rows.windows(2).all(|w| w[0].y < w[1].y));
    }

    #[test]
    fn macros_carve_blockages() {
        let d = synthesize(
            &SynthesisSpec::new("rb", 200, 210)
                .with_seed(2)
                .with_macro_count(1),
        )
        .unwrap();
        let rows = build_rows(&d).unwrap();
        // Some row must have been split or trimmed by the macro.
        let nl = d.netlist();
        let macro_rect = nl
            .cell_ids()
            .find(|&c| nl.cell(c).kind() == CellKind::Fixed)
            .map(|c| d.cell_rect(c))
            .unwrap();
        let mut saw_carved = false;
        for row in &rows {
            if macro_rect.ly < row.y + row.height && macro_rect.uy > row.y {
                for seg in &row.segments {
                    // No free segment may overlap the macro interior.
                    assert!(
                        seg.x1 <= macro_rect.lx + 1e-9 || seg.x0 >= macro_rect.ux - 1e-9,
                        "segment [{}, {}] overlaps macro {macro_rect}",
                        seg.x0,
                        seg.x1
                    );
                }
                saw_carved = true;
            }
        }
        assert!(saw_carved, "macro did not intersect any row");
    }

    #[test]
    fn snapping_is_consistent() {
        let row = RowModel {
            y: 0.0,
            height: 12.0,
            site: 2.0,
            origin: 0.0,
            segments: vec![],
        };
        assert_eq!(row.snap_down(5.1), 4.0);
        assert_eq!(row.snap_up(5.1), 6.0);
        assert_eq!(row.snap_down(6.0), 6.0);
        assert_eq!(row.snap_up(6.0), 6.0);
    }

    #[test]
    fn rowless_design_synthesizes_rows() {
        use xplace_db::netlist::{CellKind as CK, NetlistBuilder};
        use xplace_db::Point;
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 2.0, 4.0, CK::Movable).unwrap();
        let c = b.add_cell("c", 2.0, 4.0, CK::Movable).unwrap();
        b.add_net("n", vec![(a, Point::default()), (c, Point::default())])
            .unwrap();
        let nl = b.finish().unwrap();
        let d = Design::new(
            "norow",
            nl,
            Rect::new(0.0, 0.0, 40.0, 40.0),
            vec![],
            0.9,
            vec![Point::new(10.0, 10.0), Point::new(20.0, 20.0)],
        )
        .unwrap();
        let rows = build_rows(&d).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].height, 4.0);
    }
}
